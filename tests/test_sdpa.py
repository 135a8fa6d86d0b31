import pytest

from pmicert.algebra import Polynomial, SymPolyMatrix
from pmicert.certify import ball_constraint
from pmicert.relax import build_relaxation
from pmicert.sdpa import export_sdpa, format_sdpa, parse_sdpa, to_sdpa_data


def x():
    return Polynomial.variable(1, 0)


def interval_problem(k=1):
    return build_relaxation(x(), ball_constraint(1), k)


class TestExport:
    def test_interval_header(self):
        text = export_sdpa(interval_problem())
        data = parse_sdpa(text)
        assert data.ncons == 3
        assert data.nblocks == 2
        assert data.sizes == [2, 1]

    def test_gamma_convention_recorded(self):
        data = parse_sdpa(export_sdpa(interval_problem()))
        # the constant monomial is first in graded-lex order
        assert data.gamma_constraint == 1

    def test_objective_is_rhs(self):
        data = parse_sdpa(export_sdpa(interval_problem()))
        assert data.objective == [0.0, 1.0, 0.0]  # coefficients of f = x

    def test_reexport_byte_identical(self):
        p = interval_problem(2)
        text = export_sdpa(p)
        assert format_sdpa(parse_sdpa(text)) == text
        assert export_sdpa(p) == text

    def test_entries_upper_triangle(self):
        data = parse_sdpa(export_sdpa(interval_problem(2)))
        for cons, blk, i, j, v in data.entries:
            assert 1 <= i <= j <= data.sizes[blk - 1]

    def test_matrix_constraint_block(self):
        one = Polynomial.const(1, 1)
        Gm = SymPolyMatrix([[one, x()], [x(), one]])
        p = build_relaxation(x(), Gm, 1)
        data = parse_sdpa(export_sdpa(p))
        assert data.sizes == [2, 2]
        assert data.ncons == 3


class TestParser:
    def test_malformed_entry(self):
        text = export_sdpa(interval_problem())
        bad = text + "1 1 1\n"
        with pytest.raises(ValueError):
            parse_sdpa(bad)

    def test_out_of_range_entry(self):
        text = export_sdpa(interval_problem())
        bad = text + "1 1 3 3 1.0\n"
        with pytest.raises(ValueError):
            parse_sdpa(bad)

    def test_truncated(self):
        with pytest.raises(ValueError):
            parse_sdpa("3\n2\n")

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_sdpa("1\n2\n3\n0.0\n")

    def test_gamma_constraint_in_range(self):
        # the last constraint may carry gamma; one past it may not
        lines = export_sdpa(interval_problem()).splitlines()
        ncons = int(lines[2])
        for k in (1, ncons):
            text = "\n".join(lines[:1] + [f"* constraint {k} carries the free objective scalar gamma"]
                             + lines[2:]) + "\n"
            assert parse_sdpa(text).gamma_constraint == k
        text = "\n".join(lines[:1] + [f"* constraint {ncons + 1} carries the free objective "
                                      "scalar gamma"] + lines[2:]) + "\n"
        with pytest.raises(ValueError, match=f"^line 2: gamma constraint {ncons + 1} is outside"):
            parse_sdpa(text)

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda lines: lines[:2] + ["q"] + lines[3:], 3),                  # ncons
            (lambda lines: lines[:5] + ["0.0 x 0.0"] + lines[6:], 6),          # objective
            (lambda lines: lines[:6] + ["1 1 1 1 x"] + lines[7:], 7),          # entry value
            (lambda lines: lines[:7] + ["1 q 1 1 1.0"] + lines[8:], 8),        # entry index
            (lambda lines: lines[:1] + ["* constraint z carries the free objective scalar gamma"]
             + lines[2:], 2),
            (lambda lines: lines[:4], 5),                                      # truncated
            (lambda lines: lines[:4] + ["0 1"] + lines[5:], 5),                # block sizes
            (lambda lines: lines[:4] + ["2 -1"] + lines[5:], 5),
            (lambda lines: lines[:5] + ["nan 1.0 0.0"] + lines[6:], 6),        # objective
            (lambda lines: lines[:5] + ["0.0 inf 0.0"] + lines[6:], 6),
            (lambda lines: lines[:5] + ["0.0 1.0 1e999"] + lines[6:], 6),
            (lambda lines: lines[:6] + ["1 1 1 1 nan"] + lines[7:], 7),        # entry value
            (lambda lines: lines[:6] + ["1 1 1 1 -inf"] + lines[7:], 7),
            (lambda lines: lines[:6] + ["1 1 1 1 1e999"] + lines[7:], 7),
            # the gamma constraint must be one of the ncons constraints
            (lambda lines: lines[:1] + ["* constraint 99 carries the free objective scalar gamma"]
             + lines[2:], 2),
            (lambda lines: lines[:1] + ["* constraint -4 carries the free objective scalar gamma"]
             + lines[2:], 2),
            (lambda lines: lines[:1] + ["* constraint 0 carries the free objective scalar gamma"]
             + lines[2:], 2),
        ],
        ids=["ncons", "objective", "entry-value", "entry-index", "gamma-comment", "truncated",
             "size-zero", "size-negative", "objective-nan", "objective-inf",
             "objective-overflow", "entry-nan", "entry-minus-inf", "entry-overflow",
             "gamma-past-ncons", "gamma-negative", "gamma-zero"],
    )
    def test_errors_name_their_line(self, edit, line):
        lines = export_sdpa(interval_problem()).splitlines()
        assert lines[0].startswith("*") and lines[1].startswith("*")
        with pytest.raises(ValueError, match=f"^line {line}: "):
            parse_sdpa("\n".join(edit(lines)) + "\n")
