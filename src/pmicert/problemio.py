"""Problem files (.pmi): JSON with exact coefficient strings.

Coefficients are strings ("p/q" or "p/q+r/s*sqrt(n)") rather than JSON
numbers so that exact verification downstream is never silently broken by
binary floats.  The printer emits the upper triangle only, terms in
graded-lex order, sorted keys: parse -> print is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ring import parse_ext_rational
from .algebra import Polynomial, SymPolyMatrix


class ProblemFormatError(ValueError):
    pass


@dataclass
class ProblemData:
    n: int
    ell: int
    m: int
    F: SymPolyMatrix
    G: SymPolyMatrix


def _poly_from_terms(terms, n: int, where: str) -> Polynomial:
    out = {}
    for idx, term in enumerate(terms):
        try:
            exps, coeff = term
        except (TypeError, ValueError):
            raise ProblemFormatError(
                f"{where}: term {idx} must be [exponents, coefficient]"
            )
        if len(exps) != n:
            raise ProblemFormatError(
                f"{where}: term {idx} has {len(exps)} exponents, expected {n}"
            )
        key = tuple(int(e) for e in exps)
        try:
            out[key] = parse_ext_rational(str(coeff))
        except ValueError as exc:
            raise ProblemFormatError(f"{where}: term {idx}: {exc}") from None
    return Polynomial(n, out)


def _matrix_from_entries(entries, size: int, n: int, name: str) -> SymPolyMatrix:
    upper = {}
    for entry in entries:
        try:
            i, j = int(entry["row"]), int(entry["col"])
        except (KeyError, TypeError):
            raise ProblemFormatError(f"{name}: entries need 'row' and 'col'")
        if not (0 <= i < size and 0 <= j < size):
            raise ProblemFormatError(f"{name}: entry ({i},{j}) out of range for size {size}")
        poly = _poly_from_terms(entry.get("terms", []), n, f"{name}[{i},{j}]")
        key = (min(i, j), max(i, j))
        if key in upper and upper[key] != poly:
            raise ProblemFormatError(f"{name}: conflicting entries for ({i},{j})")
        upper[key] = poly
    return SymPolyMatrix.from_upper(size, upper, n)


def parse_problem(text: str) -> ProblemData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    for key in ("n", "ell", "m"):
        if key not in doc:
            raise ProblemFormatError(f"missing field {key!r}")
    n, ell, m = int(doc["n"]), int(doc["ell"]), int(doc["m"])
    if n < 1 or ell < 1 or m < 1:
        raise ProblemFormatError("n, ell, m must be positive")
    F = _matrix_from_entries(doc.get("F", []), ell, n, "F")
    G = _matrix_from_entries(doc.get("G", []), m, n, "G")
    return ProblemData(n, ell, m, F, G)


def load_problem(path: str) -> ProblemData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _matrix_entries(M: SymPolyMatrix) -> list:
    out = []
    for i in range(M.size):
        for j in range(i, M.size):
            p = M[i, j]
            if p.is_zero():
                continue
            terms = []
            for alpha in sorted(p.terms, key=lambda a: (sum(a), a), reverse=True):
                terms.append([list(alpha), str(p.terms[alpha])])
            out.append({"row": i, "col": j, "terms": terms})
    return out


def dump_problem(data: ProblemData) -> str:
    doc = {
        "n": data.n,
        "ell": data.ell,
        "m": data.m,
        "F": _matrix_entries(data.F),
        "G": _matrix_entries(data.G),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
