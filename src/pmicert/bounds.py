"""Closed-form degree bounds, exponent estimates and convergence rates.

Every closed form is a list of factor rows (name, base, exponent) evaluated by
_product: exactly over big integers / rationals whenever the inputs are
rational with an integral Lojasiewicz exponent and the factors fit the exact
budget (_EXACT_BIT_LIMIT); otherwise a floating-point value is produced
(through logarithms, so astronomically large results degrade to inf, with
their log10 in the extras, rather than raising).  The convergence rate reads
the rows of the matrix degree bound.  Every report carries a
factor-by-factor breakdown whose product reproduces the value (except where a
factor overflows to inf in floating point and the product does not), plus
caveats:
the universal constant C and the Lojasiewicz data (kappa, eta) are user
parameters, not computed quantities, so the outputs are formula evaluations
rather than certified thresholds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Polynomial, SymPolyMatrix
from .bernstein import bernstein_norm

C_CAVEAT = (
    "the universal constant C is unspecified; the value shown treats C as exact input"
)
LOJ_CAVEAT = "kappa and eta are user-supplied Lojasiewicz data, not computed here"

# Bits an exact evaluation may form: numerator plus denominator bits of C and
# of every factor base, times the exponent.  14,000 bits keep every exact
# factor and value printable within Python's default limit of 4,300 digits
# for int to str conversion; beyond that the value is reported in floating
# point.
_EXACT_BIT_LIMIT = 14_000


def theta(m: int) -> int:
    """sum_{i=1..m} prod_{k=m+1-i..m} k(k+1)/2, exact, by the recurrence
    theta(k) = k(k+1)/2 * (1 + theta(k-1)) from theta(0) = 0."""
    if m < 1:
        raise ValueError("m must be at least 1")
    total = 0
    for k in range(1, m + 1):
        total = k * (k + 1) // 2 * (1 + total)
    return total


class _Log2:
    """A positive number known only by its log2.  theta(m) past the exact
    budget is one: every row it enters is then evaluated in floating point
    through logarithms, so nothing more is read."""

    __slots__ = ("log2",)

    def __init__(self, log2: float):
        self.log2 = log2


def _theta_log2(m: int) -> float:
    """log2 theta(m) in floating point.  theta(m) = P(m) sum_{j<m} 1/P(j) with
    P(j) = j!(j+1)!/2^j; log2 P(m) comes from log-gamma, and the tail sum,
    below 2.4, is added term by term until a term no longer changes it."""
    head = (math.lgamma(m + 1) + math.lgamma(m + 2)) / math.log(2) - m
    tail, term = 0.0, 1.0
    for j in range(m):
        tail += term
        term /= (j + 1) * (j + 2) / 2
        if term < tail * 2.0**-60:
            break
    return head + math.log2(tail)


def theta_decimal(m: int) -> str:
    """theta(m) in decimal.  Past the interpreter's limit on the digits of an
    int-to-str conversion it raises ValueError naming m and the digit count,
    read from _theta_log2 before any work; theta(m) is formed to count its
    digits exactly only where the estimate lies within one digit of the
    limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if m < 1 or not limit:
        return str(theta(m))
    digits = int(_theta_log2(m) * math.log10(2)) + 1
    if digits <= limit + 1:
        value = theta(m)
        # 2^(b-1) <= value < 2^b: the count is d or d + 1 for d below
        digits = int((value.bit_length() - 1) * math.log10(2)) + 1
        digits += value >= 10**digits
        if digits <= limit:
            return str(value)
    raise ValueError(f"theta({m}) has {digits} decimal digits, past the limit of {limit} "
                     "for integer string conversion")


def _theta_row(m: int, plus: int = 0):
    """theta(m) + plus for the rows of a formula: exact while log2 theta(m)
    fits the exact budget, else a _Log2, since no exact row can hold it."""
    log2 = _theta_log2(m)
    return theta(m) + plus if log2 <= _EXACT_BIT_LIMIT else _Log2(log2)


def lojasiewicz_r(n: int, d: int) -> int:
    """The exponent helper R(n, d) = d * (3d - 3)^(n-1)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return d * (3 * d - 3) ** (n - 1)


def eta_estimate(n: int, m: int, d_G: int, setting: str = "matrix") -> int | float:
    """Upper estimate lead * base^exp of the Lojasiewicz exponent for the
    given setting: exact within the exact budget, else in floating point."""
    if n < 1 or m < 1 or d_G < 1:
        raise ValueError("n, m, d_G must be positive")
    if setting == "scalar":
        lead, base, exp = d_G + 1, 3 * d_G, n + m - 2
    elif setting == "matrix":
        lead, base, exp = 3 ** (m - 1) * d_G + 1, 3**m * d_G, _theta_row(m, n - 2)
    elif setting == "homogenized":
        half = -(-d_G // 2)  # ceil
        lead, base, exp = 2 * 3 ** (m - 1) * half + 1, 2 * 3**m * half, _theta_row(m, n - 1)
    else:
        raise ValueError(f"unknown setting {setting!r}")
    if isinstance(exp, _Log2):
        exp = math.inf  # past 2^14000, far past the float range
    return _product(lead, [("base^exp", base, exp)], True)[0]


@dataclass
class BoundInputs:
    n: int
    m: int
    d: int
    d_G: int
    ratio: Fraction | float = Fraction(1)
    kappa: Fraction | float = Fraction(1)
    eta: int | Fraction | float = 1
    C: Fraction | float = Fraction(1)

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.d < 1 or self.d_G < 1:
            raise ValueError("n, m, d, d_G must be positive integers")
        for name in ("ratio", "kappa", "eta", "C"):
            v = getattr(self, name)
            if not isinstance(v, float):
                v = Fraction(v)
                if name == "eta" and v.denominator == 1:
                    v = int(v)  # an integral eta keeps every exponent exact
            if v <= 0:
                raise ValueError(f"{name} must be positive")
            setattr(self, name, v)

    def is_exact(self) -> bool:
        return isinstance(self.eta, int) and not any(
            isinstance(v, float) for v in (self.ratio, self.kappa, self.C)
        )


@dataclass
class BoundReport:
    formula_id: str
    value: object  # int, Fraction or float
    factors: list
    caveats: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        def enc(v):
            return str(v) if isinstance(v, (int, Fraction)) else repr(float(v))

        return {
            "formula": self.formula_id,
            "value": enc(self.value),
            "factors": [[name, enc(v)] for name, v in self.factors],
            "caveats": list(self.caveats),
            "extras": {k: enc(v) for k, v in self.extras.items()},
        }


def _log2(v) -> float:
    if isinstance(v, _Log2):
        return v.log2
    if isinstance(v, Fraction):
        return math.log2(v.numerator) - math.log2(v.denominator)
    return math.log2(v)


def _bits(v) -> int | float:
    if isinstance(v, _Log2):
        return math.inf
    f = Fraction(v)
    return abs(f.numerator).bit_length() + f.denominator.bit_length()


def _log2_power(base, exp) -> float:
    """exp * log2(base): a base of 1 gives 0, and an exponent past the float
    range gives +-inf without being converted to a float."""
    lb = _log2(base)
    if lb == 0:
        return 0.0
    return exp * lb if exp <= sys.float_info.max else math.copysign(math.inf, lb)


def _product(C, factors, exact: bool):
    """C * prod base^exp over factors (name, base, exp), exactly when exact
    is asked for and C and every factor fit _EXACT_BIT_LIMIT, else in
    floating point.  Returns (value, [(name, factor)], log2 of the value,
    whether it is exact)."""
    logs = [_log2_power(b, e) for _, b, e in factors]
    log2_total = _log2(C) + sum(logs)
    if math.isnan(log2_total):
        raise ValueError("factors overflow the float range both ways; the value is undetermined")
    # bounds every exact factor, even one that a ratio < 1 cancels in the product
    exact = exact and (
        _bits(C) + sum(e * _bits(b) for _, b, e in factors) <= _EXACT_BIT_LIMIT
    )
    out_factors = [("C", C)]
    if exact:
        value = Fraction(C)
        for name, base, exp in factors:
            f = Fraction(base) ** exp
            out_factors.append((name, f if f.denominator != 1 else int(f)))
            value *= f
        if value.denominator == 1:
            value = int(value)
    else:
        floats = [math.inf if _log2(C) > 1023 else float(C)]
        for (name, base, exp), lf in zip(factors, logs):
            if lf > 1023:
                floats.append(math.inf)
            elif exp > sys.float_info.max:
                floats.append(2.0 ** lf)  # a unit base, or a base below 1: 1.0 or 0.0
            else:
                floats.append(float(base) ** float(exp))
            out_factors.append((name, floats[-1]))
        if log2_total > 1023:
            value = math.inf
        elif math.inf in floats:
            # a factor overflows but the product does not: take it from its log
            value = 2.0 ** log2_total
        else:
            value = math.prod(floats)
    return value, out_factors, log2_total, exact


def _evaluate(formula_id: str, inputs: BoundInputs, factors) -> BoundReport:
    """factors: list of (name, base, exponent); value = C * prod base^exp."""
    caveats = [C_CAVEAT, LOJ_CAVEAT]
    if inputs.m < 2:
        caveats.append("formula evaluated outside its intended range m >= 2")
    value, out_factors, log2_total, exact = _product(inputs.C, factors, inputs.is_exact())
    if inputs.is_exact() and not exact:
        caveats.append(
            "magnitude exceeds the exact-arithmetic budget; value reported in floating point"
        )
    report = BoundReport(formula_id, value, out_factors, caveats)
    if value == math.inf:
        report.extras["log10"] = log2_total * math.log10(2)
    return report


def _size_rows(inputs: BoundInputs) -> list:
    return [("n^2", inputs.n, 2), ("d_G^6", inputs.d_G, 6)]


def _lojasiewicz_rows(inputs: BoundInputs, eta, d_exp: str, ratio_exp: str) -> list:
    """kappa^7, d^(14 eta) and ratio^(7 eta + 3), which every degree bound
    ends with; d_exp and ratio_exp name the two exponents."""
    return [
        ("kappa^7", inputs.kappa, 7),
        (f"d^{d_exp}", inputs.d, 14 * eta),
        (f"ratio^{ratio_exp}", inputs.ratio, 7 * eta + 3),
    ]


def _putinar_rows(inputs: BoundInputs, *shape_rows) -> list:
    """8^(7 eta), the formula's rows in m, n and d_G, then the Lojasiewicz rows."""
    return [
        ("8^(7*eta)", 8, 7 * inputs.eta),
        *shape_rows,
        *_lojasiewicz_rows(inputs, inputs.eta, "(14*eta)", "(7*eta+3)"),
    ]


def _matrix_rows(inputs: BoundInputs) -> list:
    return _putinar_rows(
        inputs,
        ("3^(6*(m-1))", 3, 6 * (inputs.m - 1)),
        ("theta(m)^3", _theta_row(inputs.m), 3),
        *_size_rows(inputs),
    )


def putinar_matrix_bound(inputs: BoundInputs) -> BoundReport:
    """Certificate degree bound for a matrix constraint G (Archimedean case)."""
    return _evaluate("putinar-matrix", inputs, _matrix_rows(inputs))


def putinar_scalar_bound(inputs: BoundInputs) -> BoundReport:
    """Certificate degree bound for finitely many scalar constraints."""
    rows = _putinar_rows(inputs, ("m^3", inputs.m, 3), *_size_rows(inputs))
    return _evaluate("putinar-scalar", inputs, rows)


def licq_bound(inputs: BoundInputs) -> BoundReport:
    """Scalar-constraint bound when every feasible point satisfies the LICQ,
    which pins the Lojasiewicz exponent to 1 (so eta is ignored)."""
    rows = [("m^3", inputs.m, 3), *_size_rows(inputs), *_lojasiewicz_rows(inputs, 1, "14", "10")]
    report = _evaluate("licq", inputs, rows)
    report.caveats.append("caller asserts the LICQ on the feasible set (eta = 1)")
    return report


def pv_bound(inputs: BoundInputs) -> BoundReport:
    """Homogenized (unbounded-set) bound; also reports the certificate degree
    2k + d of the final representation."""
    rows = _putinar_rows(
        inputs,
        ("3^(6*(m-1))", 3, 6 * (inputs.m - 1)),
        ("(theta(m)+2)^3", _theta_row(inputs.m, 2), 3),
        ("(n+1)^2", inputs.n + 1, 2),
        ("ceil(d_G/2)^6", -(-inputs.d_G // 2), 6),
    )
    report = _evaluate("putinar-vasilescu", inputs, rows)
    k = report.value
    report.extras["certificate_degree"] = (
        2 * k + inputs.d if not isinstance(k, float) else 2.0 * k + inputs.d
    )
    return report


def convergence_rate(inputs: BoundInputs, k, f_norm_b: float = 1.0) -> float:
    """Error bound 3 * base^(1/p) * ||f||_B * k^(-1/p) of the order-k
    relaxation: base is C times every row of the matrix bound but the last,
    ratio^p, whose exponent is p = 7 eta + 3.  Each exponent is divided by
    p before it meets a logarithm, so a C or an eta past the float range
    still gives a finite rate."""
    if k < 1:
        raise ValueError("k must be at least 1")
    *rows, (_, _, p) = _matrix_rows(inputs)
    # int / int is exact past the float range, where float / int overflows
    log2_root = _log2(inputs.C) * (1 / p)
    for _, base, exp in rows:
        log2_root += _log2(base) * (exp / p)
    return 3.0 * 2.0**log2_root * f_norm_b * float(k) ** -(1 / p)


def markov_gradient_bound(p: Polynomial) -> float:
    """Upper bound 2d(2d-1)/(sqrt(n)+1) * sup |p| on the gradient norm of p
    over the scaled simplex; the sup is bounded by the Bernstein norm."""
    d = max(p.degree, 0)
    if d == 0:
        return 0.0
    n = p.nvars
    factor = 2 * d * (2 * d - 1) / (math.sqrt(n) + 1)
    return factor * bernstein_norm(SymPolyMatrix.scalar(p))


def perturbation_bound(eps, eta=1, C=1):
    """Degree C * eps^(-7 eta - 3) sufficient after the standard identity
    perturbation of a merely-PSD matrix, evaluated as C * (1/eps)^(7 eta + 3)
    within the exact budget of the other formulas."""
    if eps <= 0 or eta <= 0 or C <= 0:
        raise ValueError("eps, eta and C must be positive")
    exact = isinstance(eta, int) and not isinstance(eps, float) and not isinstance(C, float)
    return _product(C, [("eps^-(7*eta+3)", Fraction(1) / eps, 7 * eta + 3)], exact)[0]
