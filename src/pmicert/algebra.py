"""Exact multivariate polynomials and symmetric polynomial matrices.

Polynomials are sparse term maps from exponent tuples to ExtRational
coefficients; all arithmetic is exact over Q[sqrt(r)].  Matrices come in
three flavours: general rectangular polynomial matrices (PolyMatrix),
exactly-symmetric square ones (SymPolyMatrix) and constant symmetric
matrices over the coefficient ring (RationalSymMatrix), which carry the
exact positive-semidefiniteness test.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .ring import ExtRational, ZERO, ONE, parse_ext_rational

Exponent = tuple


def _grlex_key(alpha: Exponent):
    return (sum(alpha), alpha)


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != nvars:
                raise ValueError(f"exponent {alpha} has wrong length for nvars={nvars}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = ExtRational.coerce(coeff)
            if not coeff.is_zero():
                clean[alpha] = clean.get(alpha, ZERO) + coeff
                if clean[alpha].is_zero():
                    del clean[alpha]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: ExtRational.coerce(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): ONE})

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha) -> ExtRational:
        return self.terms.get(tuple(alpha), ZERO)

    def constant_term(self) -> ExtRational:
        return self.terms.get((0,) * self.nvars, ZERO)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, ZERO) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            scalar = ExtRational.coerce(other)
            return Polynomial(
                self.nvars, {a: c * scalar for a, c in self.terms.items()}
            )
        self._check(other)
        out: dict = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point) -> ExtRational:
        point = [ExtRational.coerce(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        total = ZERO
        for alpha, c in self.terms.items():
            val = c
            for x, e in zip(point, alpha):
                if e:
                    val = val * x**e
            total = total + val
        return total

    def evaluate_float(self, point):
        """Float value at one point (n,), or an array of values at each row of
        a (P, n) batch of points."""
        pts = np.asarray(point, dtype=float)
        batch = np.atleast_2d(pts)
        total = np.zeros(len(batch))
        for alpha, c in self.terms.items():
            total += float(c) * np.prod(batch ** np.array(alpha), axis=1)
        return float(total[0]) if pts.ndim == 1 else total

    def substitute(self, replacements: dict) -> "Polynomial":
        """Substitute polynomials for variables: {index: Polynomial}."""
        if not replacements:
            return self
        nvars_out = next(iter(replacements.values())).nvars
        out = Polynomial.zero(nvars_out)
        for alpha, c in self.terms.items():
            factor = Polynomial.const(nvars_out, c)
            for i, e in enumerate(alpha):
                if e == 0:
                    continue
                if i in replacements:
                    factor = factor * replacements[i] ** e
                else:
                    raise ValueError(f"no replacement given for variable {i}")
            out = out + factor
        return out

    def homogenize(self, target_degree: int) -> "Polynomial":
        """Return x0^target * p(x/x0) in nvars+1 variables (x0 first)."""
        d = self.degree
        if target_degree < d:
            raise ValueError(
                f"target degree {target_degree} below polynomial degree {d}"
            )
        terms = {}
        for alpha, c in self.terms.items():
            terms[(target_degree - sum(alpha),) + alpha] = c
        return Polynomial(self.nvars + 1, terms)

    def dehomogenize(self) -> "Polynomial":
        """Substitute 1 for the first variable and drop it."""
        if self.nvars < 1:
            raise ValueError("no variable to dehomogenize")
        terms: dict = {}
        for alpha, c in self.terms.items():
            key = alpha[1:]
            terms[key] = terms.get(key, ZERO) + c
        return Polynomial(self.nvars - 1, terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(a) for a in self.terms}
        return len(degs) <= 1

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: '(coeff) * x1^e1*...*xn^en' terms, graded-lex."""
        if not self.terms:
            alpha = (0,) * self.nvars
            mono = "*".join(f"x{i + 1}^0" for i in range(self.nvars)) or "1"
            return f"(0/1) * {mono}"
        parts = []
        for alpha in sorted(self.terms, key=_grlex_key, reverse=True):
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(alpha)) or "1"
            parts.append(f"({self.terms[alpha]}) * {mono}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial<{self.nvars}>({self.to_text()})"


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Inverse of Polynomial.to_text."""
    terms = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("("):
            raise ValueError(f"malformed term {chunk!r}: missing coefficient parens")
        close = chunk.rindex(")")  # the coefficient itself may contain 'sqrt(n)'
        coeff = parse_ext_rational(chunk[1:close])
        rest = chunk[close + 1 :].lstrip(" *")
        exps = [0] * nvars
        if rest and rest != "1":
            for factor in rest.split("*"):
                if "^" not in factor:
                    raise ValueError(f"malformed monomial factor {factor!r}")
                var, exp = factor.split("^")
                idx = int(var[1:]) - 1
                if not 0 <= idx < nvars:
                    raise ValueError(f"variable {var} out of range")
                exps[idx] = int(exp)
        key = tuple(exps)
        prev = terms.get(key, ZERO)
        terms[key] = prev + coeff
    return Polynomial(nvars, terms)


def monomials_upto(nvars: int, degree: int) -> list:
    """All exponent tuples with |alpha| <= degree, sorted graded-lex."""
    out = []
    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)
    rec([], nvars, degree)
    out.sort(key=_grlex_key)
    return out


# ---------------------------------------------------------------------------
# polynomial matrices


class PolyMatrix:
    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("empty matrix")
        rows = len(entries)
        cols = len(entries[0])
        nvars = entries[0][0].nvars
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for p in row:
                if not isinstance(p, Polynomial) or p.nvars != nvars:
                    raise ValueError("entries must be polynomials in the same variables")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        z = Polynomial.zero(nvars)
        return cls([[z for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def identity(cls, size: int, nvars: int) -> "PolyMatrix":
        one = Polynomial.const(nvars, 1)
        z = Polynomial.zero(nvars)
        return cls([[one if i == j else z for j in range(size)] for i in range(size)])

    @classmethod
    def column(cls, polys) -> "PolyMatrix":
        return cls([[p] for p in polys])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def degree(self) -> int:
        return max(p.degree for row in self.entries for p in row)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + other.scale(ExtRational(-1))

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[p * c for p in row] for row in self.entries])

    def scale_poly(self, q: Polynomial) -> "PolyMatrix":
        return PolyMatrix([[p * q for p in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Polynomial.zero(self.nvars)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def evaluate(self, point):
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


class SymPolyMatrix(PolyMatrix):
    """Square polynomial matrix with exact entrywise symmetry."""

    def __init__(self, entries):
        super().__init__(entries)
        if self.rows != self.cols:
            raise ValueError("symmetric matrix must be square")
        for i in range(self.rows):
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")

    @property
    def size(self) -> int:
        return self.rows

    @classmethod
    def from_upper(cls, size: int, upper: dict, nvars: int) -> "SymPolyMatrix":
        z = Polynomial.zero(nvars)
        grid = [[z for _ in range(size)] for _ in range(size)]
        for (i, j), p in upper.items():
            grid[i][j] = p
            grid[j][i] = p
        return cls(grid)

    @classmethod
    def identity(cls, size: int, nvars: int) -> "SymPolyMatrix":
        return cls(PolyMatrix.identity(size, nvars).entries)

    @classmethod
    def zero(cls, size: int, nvars: int) -> "SymPolyMatrix":
        return cls(PolyMatrix.zero(size, size, nvars).entries)

    @classmethod
    def scalar(cls, p: Polynomial) -> "SymPolyMatrix":
        return cls([[p]])

    def evaluate(self, point) -> "RationalSymMatrix":
        return RationalSymMatrix(super().evaluate(point))

    def evaluate_float(self, point) -> np.ndarray:
        """Float matrix (ell, ell) at one point (n,), or the (P, ell, ell)
        stack of matrices at a (P, n) batch of points."""
        pts = np.asarray(point, dtype=float)
        batch = np.atleast_2d(pts)
        out = np.empty((len(batch), self.size, self.size))
        for i, row in enumerate(self.entries):
            for j in range(i, self.size):
                out[:, i, j] = out[:, j, i] = row[j].evaluate_float(batch)
        return out[0] if pts.ndim == 1 else out

    def homogenize(self, target_degree: int) -> "SymPolyMatrix":
        return SymPolyMatrix(
            [[p.homogenize(target_degree) for p in row] for row in self.entries]
        )

    def dehomogenize(self) -> "SymPolyMatrix":
        return SymPolyMatrix([[p.dehomogenize() for p in row] for row in self.entries])

    def is_homogeneous_of(self, degree: int) -> bool:
        for row in self.entries:
            for p in row:
                if any(sum(a) != degree for a in p.terms):
                    return False
        return True


def scale_argument(p: Polynomial, r) -> Polynomial:
    """p(sqrt(r) * x), exact over Q[sqrt(r)] for rational r > 0.

    Used to renormalize an Archimedean constraint so the unit ball works as
    the reference set: each term picks up r^(|alpha|/2), with sqrt(r)
    surviving on odd-degree terms.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scaling factor must be positive")
    # sqrt(p/q) = sqrt(p q) / q keeps an integer radicand
    radicand = r.numerator * r.denominator
    root = ExtRational(0, Fraction(1, r.denominator), radicand)
    terms = {}
    for alpha, c in p.terms.items():
        terms[alpha] = c * root ** sum(alpha)
    return Polynomial(p.nvars, terms)


def scale_argument_matrix(M: SymPolyMatrix, r) -> SymPolyMatrix:
    """Entrywise M(sqrt(r) * x)."""
    return SymPolyMatrix([[scale_argument(p, r) for p in row] for row in M.entries])


def congruence(P: PolyMatrix, G: SymPolyMatrix) -> SymPolyMatrix:
    """The exact congruence transform P^T G P."""
    if P.rows != G.size:
        raise ValueError(
            f"dimension mismatch: P is {P.rows}x{P.cols}, G is {G.size}x{G.size}"
        )
    prod = P.transpose() @ (G @ P)
    return SymPolyMatrix(prod.entries)


# ---------------------------------------------------------------------------
# constant symmetric matrices and the exact PSD decision


class RationalSymMatrix:
    __slots__ = ("size", "entries")

    def __init__(self, entries):
        entries = [[ExtRational.coerce(v) for v in row] for row in entries]
        size = len(entries)
        for row in entries:
            if len(row) != size:
                raise ValueError("matrix must be square")
        for i in range(size):
            for j in range(i + 1, size):
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSymMatrix is immutable")

    @classmethod
    def identity(cls, size: int) -> "RationalSymMatrix":
        return cls([[ONE if i == j else ZERO for j in range(size)] for i in range(size)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalSymMatrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.entries))

    def scale(self, c) -> "RationalSymMatrix":
        c = ExtRational.coerce(c)
        return RationalSymMatrix([[v * c for v in row] for row in self.entries])

    def __add__(self, other):
        return RationalSymMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.size)]
                for i in range(self.size)
            ]
        )

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])

    def submatrix(self, idx) -> "RationalSymMatrix":
        return RationalSymMatrix(
            [[self.entries[i][j] for j in idx] for i in idx]
        )

    def determinant(self) -> ExtRational:
        """Exact determinant by Gaussian elimination in Q[sqrt(r)]."""
        n = self.size
        a = [row[:] for row in self.entries]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det = det * a[col][col]
            inv = a[col][col].inverse()
            for r in range(col + 1, n):
                if a[r][col].is_zero():
                    continue
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] = a[r][c] - factor * a[col][c]
        return det

    def __repr__(self):
        return f"RationalSymMatrix({self.size}x{self.size})"


def psd_exact(M: RationalSymMatrix, strict: bool = False) -> bool:
    """Exact PSD (strict: PD) decision of any size, from the LDL^T of ldlt.

    PSD: no negative pivot and every zero pivot has a zero row.  PD: in
    addition all M.size pivots are positive.
    """
    try:
        _, pivots = ldlt(M)
    except ValueError:
        return False
    return not strict or len(pivots) == M.size


def psd_exact_ldlt(M: RationalSymMatrix) -> bool:
    # kept under this name: perfbench/tracer.py wraps it by name
    return psd_exact(M)


def ldlt(M: RationalSymMatrix):
    """Exact LDL^T of a PSD matrix: returns (columns, pivots) with
    M = sum_r pivots[r] * columns[r] columns[r]^T, pivots[r] > 0.

    Symmetric elimination without row exchanges; a zero pivot whose row is
    zero is skipped, so len(pivots) == M.size exactly when M is PD.  Raises
    ValueError if a negative pivot or a zero pivot with a nonzero row is met
    (i.e. the matrix is not PSD).
    """
    n = M.size
    a = [row[:] for row in M.entries]
    cols = []
    pivots = []
    for k in range(n):
        piv = a[k][k]
        s = piv.sign()
        if s < 0:
            raise ValueError("matrix is not positive semidefinite (negative pivot)")
        if s == 0:
            if any(not a[k][j].is_zero() for j in range(k, n)):
                raise ValueError("matrix is not positive semidefinite (zero pivot row)")
            continue
        inv = piv.inverse()
        col = [ZERO] * k + [ONE] + [a[i][k] * inv for i in range(k + 1, n)]
        cols.append(col)
        pivots.append(piv)
        for i in range(k + 1, n):
            factor = col[i]
            if factor.is_zero():
                continue
            for j in range(k, n):
                a[i][j] = a[i][j] - factor * a[k][j]
    return cols, pivots


def min_eigenvalue_numeric(M, tol: float = 1e-12):
    """Numeric smallest eigenvalue of a symmetric matrix (a float), or of
    each matrix of a (P, ell, ell) stack (an array of P floats)."""
    arr = M.to_numpy() if isinstance(M, RationalSymMatrix) else np.asarray(M, float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    low = np.linalg.eigvalsh(arr)[..., 0]
    return float(low) if arr.ndim == 2 else low
