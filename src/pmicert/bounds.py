"""Closed-form degree bounds, exponent estimates and convergence rates.

All formulas are evaluated exactly over big integers / rationals whenever the
inputs are rational with an integral Lojasiewicz exponent and the factors fit
the exact budget (_EXACT_BIT_LIMIT); otherwise a floating-point value is
produced (through logarithms, so astronomically large results degrade to inf,
with their log10 in the extras, rather than raising).  Every report carries a
factor-by-factor breakdown whose product reproduces the value (except where a
factor overflows to inf in floating point and the product does not), plus
caveats:
the universal constant C and the Lojasiewicz data (kappa, eta) are user
parameters, not computed quantities, so the outputs are formula evaluations
rather than certified thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Polynomial
from .bernstein import bernstein_norm
from .algebra import SymPolyMatrix

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
    """sum_{i=1..m} prod_{k=m+1-i..m} k(k+1)/2, exact."""
    if m < 1:
        raise ValueError("m must be at least 1")
    total = 0
    for i in range(1, m + 1):
        prod = 1
        for k in range(m + 1 - i, m + 1):
            prod *= k * (k + 1) // 2
        total += prod
    return total


def lojasiewicz_r(n: int, d: int) -> int:
    """The exponent helper R(n, d) = d * (3d - 3)^(n-1)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return d * (3 * d - 3) ** (n - 1)


def eta_estimate(n: int, m: int, d_G: int, setting: str = "matrix") -> int:
    """Upper estimate of the Lojasiewicz exponent for the given setting."""
    if n < 1 or m < 1 or d_G < 1:
        raise ValueError("n, m, d_G must be positive")
    if setting == "scalar":
        return (d_G + 1) * (3 * d_G) ** (n + m - 2)
    if setting == "matrix":
        th = theta(m)
        return (3 ** (m - 1) * d_G + 1) * (3**m * d_G) ** (n + th - 2)
    if setting == "homogenized":
        th = theta(m)
        half = -(-d_G // 2)  # ceil
        return (2 * 3 ** (m - 1) * half + 1) * (2 * 3**m * half) ** (n + th - 1)
    raise ValueError(f"unknown setting {setting!r}")


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
            if isinstance(v, float):
                if v <= 0:
                    raise ValueError(f"{name} must be positive")
            else:
                v = Fraction(v)
                if v <= 0:
                    raise ValueError(f"{name} must be positive")
                setattr(self, name, v)

    def eta_int(self):
        """eta as int when integral, else None (forces float evaluation)."""
        if isinstance(self.eta, int):
            return self.eta
        if isinstance(self.eta, Fraction) and self.eta.denominator == 1:
            return int(self.eta)
        return None

    def is_exact(self) -> bool:
        return (
            self.eta_int() is not None
            and not isinstance(self.ratio, float)
            and not isinstance(self.kappa, float)
            and not isinstance(self.C, float)
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
    if isinstance(v, Fraction):
        return math.log2(v.numerator) - math.log2(v.denominator)
    return math.log2(v)


def _bits(v) -> int:
    f = Fraction(v)
    return abs(f.numerator).bit_length() + f.denominator.bit_length()


def _evaluate(formula_id: str, inputs: BoundInputs, factors, extras=None) -> BoundReport:
    """factors: list of (name, base, exponent); value = C * prod base^exp."""
    caveats = [C_CAVEAT, LOJ_CAVEAT]
    if inputs.m < 2:
        caveats.append("formula evaluated outside its intended range m >= 2")
    log2_total = _log2(inputs.C) + sum(e * _log2(b) for _, b, e in factors if b != 1 or e)
    # bounds every exact factor, even one that a ratio < 1 cancels in the product
    exact = inputs.is_exact() and (
        _bits(inputs.C) + sum(e * _bits(b) for _, b, e in factors) <= _EXACT_BIT_LIMIT
    )
    if inputs.is_exact() and not exact:
        caveats.append(
            "magnitude exceeds the exact-arithmetic budget; value reported in floating point"
        )
    out_factors = [("C", inputs.C)]
    if exact:
        value = Fraction(inputs.C)
        for name, base, exp in factors:
            f = Fraction(base) ** exp
            out_factors.append((name, f if f.denominator != 1 else int(f)))
            value *= f
        if value.denominator == 1:
            value = int(value)
    else:
        floats = [math.inf if _log2(inputs.C) > 1023 else float(inputs.C)]
        for name, base, exp in factors:
            lf = exp * _log2(base)
            floats.append(math.inf if lf > 1023 else float(base) ** float(exp))
            out_factors.append((name, floats[-1]))
        if log2_total > 1023:
            value = math.inf
        elif math.inf in floats:
            # a factor overflows but the product does not: take it from its log
            value = 2.0 ** log2_total
        else:
            value = math.prod(floats)
    report = BoundReport(formula_id, value, out_factors, caveats, extras or {})
    if value == math.inf:
        report.extras["log10"] = log2_total * math.log10(2)
    return report


def putinar_matrix_bound(inputs: BoundInputs) -> BoundReport:
    """Certificate degree bound for a matrix constraint G (Archimedean case)."""
    eta = inputs.eta_int() if inputs.eta_int() is not None else inputs.eta
    th = theta(inputs.m)
    return _evaluate(
        "putinar-matrix",
        inputs,
        [
            ("8^(7*eta)", 8, 7 * eta),
            ("3^(6*(m-1))", 3, 6 * (inputs.m - 1)),
            ("theta(m)^3", th, 3),
            ("n^2", inputs.n, 2),
            ("d_G^6", inputs.d_G, 6),
            ("kappa^7", inputs.kappa, 7),
            ("d^(14*eta)", inputs.d, 14 * eta),
            ("ratio^(7*eta+3)", inputs.ratio, 7 * eta + 3),
        ],
    )


def putinar_scalar_bound(inputs: BoundInputs) -> BoundReport:
    """Certificate degree bound for finitely many scalar constraints."""
    eta = inputs.eta_int() if inputs.eta_int() is not None else inputs.eta
    return _evaluate(
        "putinar-scalar",
        inputs,
        [
            ("8^(7*eta)", 8, 7 * eta),
            ("m^3", inputs.m, 3),
            ("n^2", inputs.n, 2),
            ("d_G^6", inputs.d_G, 6),
            ("kappa^7", inputs.kappa, 7),
            ("d^(14*eta)", inputs.d, 14 * eta),
            ("ratio^(7*eta+3)", inputs.ratio, 7 * eta + 3),
        ],
    )


def licq_bound(inputs: BoundInputs) -> BoundReport:
    """Scalar-constraint bound when every feasible point satisfies the LICQ,
    which pins the Lojasiewicz exponent to 1 (so eta is ignored)."""
    report = _evaluate(
        "licq",
        inputs,
        [
            ("m^3", inputs.m, 3),
            ("n^2", inputs.n, 2),
            ("d_G^6", inputs.d_G, 6),
            ("kappa^7", inputs.kappa, 7),
            ("d^14", inputs.d, 14),
            ("ratio^10", inputs.ratio, 10),
        ],
    )
    report.caveats.append("caller asserts the LICQ on the feasible set (eta = 1)")
    return report


def pv_bound(inputs: BoundInputs) -> BoundReport:
    """Homogenized (unbounded-set) bound; also reports the certificate degree
    2k + d of the final representation."""
    eta = inputs.eta_int() if inputs.eta_int() is not None else inputs.eta
    th = theta(inputs.m)
    half = -(-inputs.d_G // 2)
    report = _evaluate(
        "putinar-vasilescu",
        inputs,
        [
            ("8^(7*eta)", 8, 7 * eta),
            ("3^(6*(m-1))", 3, 6 * (inputs.m - 1)),
            ("(theta(m)+2)^3", th + 2, 3),
            ("(n+1)^2", inputs.n + 1, 2),
            ("ceil(d_G/2)^6", half, 6),
            ("kappa^7", inputs.kappa, 7),
            ("d^(14*eta)", inputs.d, 14 * eta),
            ("ratio^(7*eta+3)", inputs.ratio, 7 * eta + 3),
        ],
    )
    k = report.value
    report.extras["certificate_degree"] = (
        2 * k + inputs.d if not isinstance(k, float) else 2.0 * k + inputs.d
    )
    return report


def convergence_rate(inputs: BoundInputs, k, f_norm_b: float = 1.0) -> float:
    """Error bound 3 * base^(1/p) * ||f||_B * k^(-1/p) of the order-k
    relaxation, with p = 7 eta + 3 and base the matrix bound prefactor
    (everything except the ratio term)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    eta = float(inputs.eta)
    p = 7.0 * eta + 3.0
    log_base = (
        math.log(float(inputs.C))
        + 7 * eta * math.log(8)
        + 6 * (inputs.m - 1) * math.log(3)
        + 3 * math.log(theta(inputs.m))
        + 2 * math.log(inputs.n)
        + 6 * math.log(inputs.d_G)
        + 7 * math.log(float(inputs.kappa))
        + 14 * eta * math.log(inputs.d)
    )
    return 3.0 * math.exp(log_base / p) * f_norm_b * float(k) ** (-1.0 / p)


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
    perturbation of a merely-PSD matrix."""
    if isinstance(eps, float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        return float(C) * eps ** -(7 * float(eta) + 3)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(eta, int) and not isinstance(C, float):
        value = Fraction(C) * eps ** -(7 * eta + 3)
        return int(value) if value.denominator == 1 else value
    return float(C) * float(eps) ** -(7 * float(eta) + 3)
