"""Mutation fuzzing of the text parsers: .qmc, .polya, .bexp, .pmi and SDPA.

Each valid text is mutated by dropping, duplicating or swapping lines,
replacing a token, or replacing an integer by an out-of-range one.  The mutated text must either
parse or raise that format's ValueError subclass; no other exception may
escape.  Each unmutated text must round-trip parse -> serialize byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pmicert.algebra import Polynomial, RationalSymMatrix, SymPolyMatrix
from pmicert.bernstein import ExpansionParseError, parse_expansion, serialize_expansion, to_bernstein
from pmicert.certify import (CertificateParseError, QMCertificate, SOSBlock, ball_constraint,
                             deserialize, serialize)
from pmicert.polya import parse_polya, serialize_polya
from pmicert.problemio import ProblemFormatError, dump_problem, parse_problem
from pmicert.relax import build_relaxation
from pmicert.ring import ExtRational
from pmicert.sdpa import format_sdpa, parse_sdpa, export_sdpa

ROOT = Path(__file__).resolve().parent.parent


def _expansion_text() -> str:
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    off = x * y + Polynomial(2, {(1, 0): ExtRational(0, 1, 2)})
    F = SymPolyMatrix([[x * x + 2, off], [off, y + 3]])
    return serialize_expansion(to_bernstein(F, 2))


def _sqrt2_gram_text() -> str:
    """A .qmc whose SOS Gram lies in Q(sqrt 2): the golden certificates'
    Grams are rational."""
    s = ExtRational.sqrt(2)
    gram = RationalSymMatrix([[s + 3, s / 4, ExtRational(0)], [s / 4, ExtRational(2), -s / 6],
                              [ExtRational(0), -s / 6, ExtRational(Fraction(5, 3))]])
    return serialize(QMCertificate(1, 1, 1, 4, "exact", [SOSBlock([(0,), (1,), (2,)], gram)]))


def _sdpa_text() -> str:
    return export_sdpa(build_relaxation(Polynomial.variable(1, 0), ball_constraint(1), 2))


# name -> (text, parse, serialize, the format's error class)
CASES = {
    "qmc": ((ROOT / "tests/golden/matrix_target.qmc").read_text(), deserialize, serialize,
            CertificateParseError),
    "qmc-simplex": ((ROOT / "tests/golden/simplex_n2.qmc").read_text(), deserialize, serialize,
                    CertificateParseError),
    "qmc-sqrt2-gram": (_sqrt2_gram_text(), deserialize, serialize, CertificateParseError),
    "polya": ((ROOT / "tests/golden/matrix_target.polya").read_text(), parse_polya,
              serialize_polya, ExpansionParseError),
    "bexp": (_expansion_text(), parse_expansion, serialize_expansion, ExpansionParseError),
    "sdpa": (_sdpa_text(), parse_sdpa, format_sdpa, ValueError),
}
for _path in sorted((ROOT / "samples").glob("*.pmi")):
    CASES[_path.name] = (_path.read_text(), parse_problem, dump_problem, ProblemFormatError)

TOKENS = ["", "x", "0", "(", "()", "(1/0)", "(1/2*sqrt(-2))", "none", "null", "[]", "{}",
          '"1"', "1e999", "x1^-1"]
OUT_OF_RANGE = ["-1", "4000", "1000000", str(10**12), "9" * 5000]


def mutate(rnd, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rnd.randint(1, 3)):
        if not lines:
            break
        # half the picks go to the first lines, where the headers and counts are
        at = rnd.randrange(min(len(lines), 12) if rnd.random() < 0.5 else len(lines))
        kind = rnd.choice(["drop", "duplicate", "swap", "token", "inflate"])
        if kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "swap":
            other = rnd.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            # a token, or an integer for "inflate"; commas and whitespace stay
            pattern = r"[^\s,]+" if kind == "token" else r"[0-9]+"
            spans = [m.span() for m in re.finditer(pattern, lines[at])]
            if spans:
                start, end = rnd.choice(spans)
                new = rnd.choice(TOKENS if kind == "token" else OUT_OF_RANGE)
                lines[at] = lines[at][:start] + new + lines[at][end:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("parse, error, text, line, message", [
    (deserialize, CertificateParseError,
     "qmcert-v1\nmode exact\nnvars 1\nsize 1\nconstraint-size 1\ndegree 2\nsos-blocks 1\n"
     "block 0 basis 0\ngram\nmultipliers 0\nsphere-multiplier none\nend\n", 9, "empty matrix"),
    (deserialize, CertificateParseError,
     "qmcert-v1\nmode exact\nnvars 1\nsize 1\nconstraint-size 1\ndegree 2\nsos-blocks 1\n"
     "block 0 basis 2\n0\n1\ngram\n(1/1*sqrt(5))\n(0/1) (1/1*sqrt(3))\n"
     "multipliers 0\nsphere-multiplier none\nend\n", 13, r"cannot mix sqrt\(3\) with sqrt\(5\)"),
    (parse_expansion, ExpansionParseError,
     "bexp-v1\nnvars 1\ndegree 0\nsize 0\nrecords 1\nalpha 0\nend\n", 6, "empty matrix"),
    (parse_expansion, ExpansionParseError,
     "bexp-v1\nnvars 1\ndegree 0\nsize 2\nrecords 1\nalpha 0\n(1/1*sqrt(3))\n"
     "(1/1) (1/1*sqrt(2))\nend\n", 8, r"cannot mix sqrt\(2\) with sqrt\(3\)"),
], ids=["qmc-empty", "qmc-mixed", "bexp-empty", "bexp-mixed"])
def test_unrepresentable_matrix_is_a_format_error(parse, error, text, line, message):
    # a 0x0 matrix, or one that mixes two irrational radicands, is rejected
    # at the line that completes it
    with pytest.raises(error, match=rf"^line {line}: {message}$"):
        parse(text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_byte_identical(name):
    text, parse, write, _ = CASES[name]
    assert write(parse(text)) == text


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=200)
@given(rnd=st.randoms(use_true_random=True))
def test_mutated_text_parses_or_raises_format_error(name, rnd):
    text, parse, _, error = CASES[name]
    mutated = mutate(rnd, text)
    try:
        parse(mutated)
    except error:
        pass
