"""Problem files (.pmi): JSON with exact coefficient strings.

Coefficients are strings ("p/q" or "p/q+r/s*sqrt(n)") rather than JSON
numbers so that exact verification downstream is never silently broken by
binary floats.  An entry names each exponent at most once; a repeat is an
error, as two conflicting entries are.  The printer emits the upper triangle
only, terms in graded-lex order, sorted keys: parse -> print is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ring import parse_parts
from .algebra import Polynomial, SymPolyMatrix, polynomial_from_parts


class ProblemFormatError(ValueError):
    pass


@dataclass
class ProblemData:
    n: int
    ell: int
    m: int
    F: SymPolyMatrix
    G: SymPolyMatrix


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where} must be a list")
    return value


def _natural(value, where: str) -> int:
    # a JSON integer only: no float, digit string or bool (an int subclass)
    if type(value) is not int or value < 0:
        raise ProblemFormatError(f"{where} must be a non-negative integer")
    return value


def _poly_from_terms(terms, n: int, where: str) -> Polynomial:
    out = {}
    for idx, term in enumerate(_list(terms, f"{where}: terms")):
        try:
            exps, coeff = term
        except (TypeError, ValueError):
            raise ProblemFormatError(
                f"{where}: term {idx} must be [exponents, coefficient]"
            )
        if len(_list(exps, f"{where}: term {idx} exponents")) != n:
            raise ProblemFormatError(
                f"{where}: term {idx} has {len(exps)} exponents, expected {n}"
            )
        key = tuple(_natural(e, f"{where}: term {idx} exponent") for e in exps)
        if key in out:
            raise ProblemFormatError(f"{where}: term {idx} repeats exponents {list(key)}")
        try:
            out[key] = parse_parts(str(coeff))
        except ValueError as exc:
            raise ProblemFormatError(f"{where}: term {idx}: {exc}") from None
    return polynomial_from_parts(n, list(out), list(out.values()))


def _matrix_from_entries(entries, size: int, n: int, name: str) -> SymPolyMatrix:
    upper = {}
    for entry in _list(entries, name):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"{name}: entries must be objects with 'row' and 'col'")
        i = _natural(entry.get("row"), f"{name}: row")
        j = _natural(entry.get("col"), f"{name}: col")
        if max(i, j) >= size:
            raise ProblemFormatError(f"{name}: entry ({i},{j}) out of range for size {size}")
        poly = _poly_from_terms(entry.get("terms", []), n, f"{name}[{i},{j}]")
        key = (min(i, j), max(i, j))
        if key in upper and upper[key] != poly:
            raise ProblemFormatError(f"{name}: conflicting entries for ({i},{j})")
        upper[key] = poly
    return SymPolyMatrix.from_upper(size, upper, n)


def parse_problem(text: str) -> ProblemData:
    """Errors name the field or entry; n, ell and m are bounded by the text."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level must be a JSON object")
    n, ell, m = (_natural(doc.get(key), key) for key in ("n", "ell", "m"))
    # F and G are built as dense ell x ell and m x m grids: at most 16 cells
    # per character of the file
    if not 1 <= min(n, ell, m) or n > len(text) or max(ell, m) ** 2 > 16 * len(text):
        raise ProblemFormatError(
            "n, ell, m must be positive, n at most the file length "
            "and ell^2, m^2 at most 16 times it")
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
            for alpha, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
                terms.append([list(alpha), str(c)])
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
