"""SDPA sparse text export of relaxation problems, plus a re-import parser.

Semantics of the exported file: constraint c (one per monomial of degree up
to 2k, in graded-lex order) states <A_c, X> = b_c over the PSD blocks, except
that the constant-monomial constraint carries the free objective scalar:
<A_c, X> + gamma = b_c, with gamma to be maximized (the standard dual-form
treatment of the bound variable).  Header comments record that convention.

Layout: comment lines starting with '*', then the number of constraints, the
number of blocks, the block size list (positive: the parser rejects the
negative sizes by which SDPA marks diagonal blocks, which are never
emitted), the objective/right-hand-side vector, and one line per entry
`<cons#> <block#> <i> <j> <value>` with 1-based indices and i <= j (upper
triangle of the symmetric coefficient matrices).  Every value is a finite
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .relax import SDPProblem


@dataclass
class SdpaData:
    ncons: int
    nblocks: int
    sizes: list
    objective: list       # floats, length ncons
    entries: list         # (cons 1-based, block 1-based, i, j, value) with i <= j
    gamma_constraint: int  # 1-based index of the constraint carrying gamma


def to_sdpa_data(p: SDPProblem) -> SdpaData:
    """The entries ordered by constraint, then block, then (i, j).  Each
    block's index arrays are sorted by (constraint, i, j) already, so one
    stable sort by constraint of the blocks' entries, block after block,
    gives that order."""
    entries = []
    for blk, (cons, row, col, val) in enumerate(p.entries, 1):
        entries += zip((cons + 1).tolist(), [blk] * len(cons), (row + 1).tolist(),
                       (col + 1).tolist(), val.tolist())
    entries.sort(key=itemgetter(0))
    return SdpaData(
        ncons=p.constraint_count(),
        nblocks=len(p.entries),
        sizes=list(p.block_sizes),
        objective=[float(v) for v in p.rhs],
        entries=entries,
        gamma_constraint=p.const_index + 1,
    )


def format_sdpa(data: SdpaData) -> str:
    lines = [
        "* SDPA sparse export: coefficient-matching constraints of an SOS relaxation",
        f"* constraint {data.gamma_constraint} carries the free objective scalar gamma",
        str(data.ncons),
        str(data.nblocks),
        " ".join(str(s) for s in data.sizes),
        " ".join(repr(v) for v in data.objective),
    ]
    for cons, blk, i, j, v in data.entries:
        lines.append(f"{cons} {blk} {i} {j} {v!r}")
    return "\n".join(lines) + "\n"


def export_sdpa(p: SDPProblem) -> str:
    """Deterministic SDPA sparse text for a built relaxation."""
    return format_sdpa(to_sdpa_data(p))


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"value {token!r} is not a finite float")
    return value


def parse_sdpa(text: str) -> SdpaData:
    """Text-level parser for the exported format (round-trip stable).  Each
    error names its 1-based line in the file, comment lines counted."""
    gamma_constraint = 0
    gamma_line = None  # the line of the gamma comment, if there is one
    body = []  # (line number, text) of the non-comment lines
    number = 0
    try:
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if line.startswith(("*", '"')):
                if "free objective scalar gamma" in line:
                    gamma_constraint, gamma_line = int(line.split()[2]), number
            elif line:
                body.append((number, line))
        if len(body) < 4:
            number += 1
            raise ValueError("truncated SDPA file: missing header lines")
        number, line = body[0]
        ncons = int(line)
        if gamma_line is not None and not 1 <= gamma_constraint <= ncons:
            number = gamma_line
            raise ValueError(f"gamma constraint {gamma_constraint} is outside 1..{ncons}")
        number, line = body[1]
        nblocks = int(line)
        number, line = body[2]
        sizes = [int(tok) for tok in line.split()]
        if len(sizes) != nblocks:
            raise ValueError(f"block size list has {len(sizes)} entries, expected {nblocks}")
        if min(sizes, default=1) < 1:
            raise ValueError(f"block sizes must be positive: {line!r}")
        number, line = body[3]
        objective = [_finite(tok) for tok in line.split()]
        if len(objective) != ncons:
            raise ValueError(f"objective vector has {len(objective)} entries, expected {ncons}")
        entries = []
        for number, line in body[4:]:
            toks = line.split()
            if len(toks) != 5:
                raise ValueError(f"malformed entry line: {line!r}")
            cons, blk, i, j = (int(t) for t in toks[:4])
            if not (1 <= cons <= ncons and 1 <= blk <= nblocks):
                raise ValueError(f"entry indices out of range: {line!r}")
            if not (1 <= i <= j <= sizes[blk - 1]):
                raise ValueError(f"entry not in upper triangle of its block: {line!r}")
            entries.append((cons, blk, i, j, _finite(toks[4])))
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    return SdpaData(ncons, nblocks, sizes, objective, entries, gamma_constraint)
