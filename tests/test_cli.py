import json
from fractions import Fraction

import pytest

from pmicert.algebra import Polynomial, SymPolyMatrix
from pmicert.certify import ball_constraint, deserialize
from pmicert.cli import main
from pmicert.problemio import ProblemData, dump_problem, parse_problem


def x():
    return Polynomial.variable(1, 0)


@pytest.fixture
def problems(tmp_path):
    two = Polynomial.const(1, 2)
    G = ball_constraint(1)
    paths = {}
    mat = ProblemData(1, 2, 1, SymPolyMatrix([[two, x()], [x(), two]]), G)
    paths["mat"] = tmp_path / "mat.pmi"
    paths["mat"].write_text(dump_problem(mat))
    fx = ProblemData(1, 1, 1, SymPolyMatrix.scalar(x()), G)
    paths["fx"] = tmp_path / "fx.pmi"
    paths["fx"].write_text(dump_problem(fx))
    unb = ProblemData(
        1, 1, 1,
        SymPolyMatrix.scalar((x() - 1) ** 2 + 1),
        SymPolyMatrix.scalar(Polynomial.const(1, 1)),
    )
    paths["unb"] = tmp_path / "unb.pmi"
    paths["unb"].write_text(dump_problem(unb))
    bad = ProblemData(1, 1, 1, SymPolyMatrix.scalar(x() * x()), G)
    paths["square"] = tmp_path / "square.pmi"
    paths["square"].write_text(dump_problem(bad))
    one = Polynomial.const(1, 1)
    g2 = ProblemData(
        1, 1, 2,
        SymPolyMatrix.scalar(one),
        SymPolyMatrix([[one, x()], [x(), one]]),
    )
    paths["g2"] = tmp_path / "g2.pmi"
    paths["g2"].write_text(dump_problem(g2))
    return paths


class TestProblemIO:
    def test_round_trip_stable(self, problems):
        text = problems["mat"].read_text()
        assert dump_problem(parse_problem(text)) == text

    def test_missing_field(self):
        with pytest.raises(Exception):
            parse_problem("{}")

    def test_asymmetry_detected(self):
        doc = {
            "n": 1, "ell": 2, "m": 1,
            "F": [
                {"row": 0, "col": 1, "terms": [[[0], "1"]]},
                {"row": 1, "col": 0, "terms": [[[0], "2"]]},
            ],
            "G": [],
        }
        with pytest.raises(Exception):
            parse_problem(json.dumps(doc))


BAD_COEFFICIENTS = ["1/0", "1e999999999", "1_000", "1/2+1/3*sqrt(-3)"]


def _problem_with_coefficient(coeff: str) -> str:
    return json.dumps({
        "n": 1, "ell": 1, "m": 1,
        "F": [{"row": 0, "col": 0, "terms": [[[0], "1"], [[1], coeff]]}],
        "G": [{"row": 0, "col": 0, "terms": [[[0], "1"]]}],
    })


class TestBadCoefficients:
    @pytest.mark.parametrize("coeff", BAD_COEFFICIENTS)
    def test_problem_error_names_entry_and_term(self, coeff):
        from pmicert.problemio import ProblemFormatError

        with pytest.raises(ProblemFormatError, match=r"^F\[0,0\]: term 1: "):
            parse_problem(_problem_with_coefficient(coeff))

    @pytest.mark.parametrize("coeff", BAD_COEFFICIENTS)
    def test_cli_exit_two_without_traceback(self, coeff, tmp_path, capsys):
        bad = tmp_path / "bad.pmi"
        bad.write_text(_problem_with_coefficient(coeff))
        assert main(["scalarize", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: F[0,0]: term 1: ")
        assert "Traceback" not in err


class TestExitCodes:
    def test_scalarize_success(self, problems, capsys):
        assert main(["scalarize", str(problems["g2"])]) == 0
        out = capsys.readouterr().out
        assert "6 scalar inequalities" in out

    def test_polya_refutation_is_exit_one(self, problems, capsys):
        assert main(["polya", str(problems["square"]), "--max-degree", "4"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_malformed_file_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmi"
        bad.write_text("{not json")
        assert main(["scalarize", str(bad)]) == 2

    def test_missing_file_is_exit_two(self, tmp_path):
        assert main(["scalarize", str(tmp_path / "nope.pmi")]) == 2

    def test_verify_failure_is_exit_one(self, problems, tmp_path, capsys):
        assert main([
            "certify-simplex", str(problems["mat"]),
            "--out", str(tmp_path / "c.qmc"),
        ]) == 0
        # tamper: verify against the wrong target
        assert main([
            "verify", str(tmp_path / "c.qmc"), str(problems["fx"]),
        ]) == 1

    def test_trivial_ball_guard(self, problems, capsys):
        assert main(["certify-simplex", str(problems["unb"])]) == 2


class TestGoldenOutputs:
    def test_bound_bytes_stable(self, capsys):
        args = ["bound", "--formula", "putinar-matrix", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["value"] == "330225942528"

    def test_scalarize_json_reparses(self, problems, capsys):
        assert main(["scalarize", str(problems["g2"]), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 6
        from pmicert.algebra import parse_polynomial

        for entry in payload["entries"]:
            parse_polynomial(entry["poly"], 1)
            for w in entry["witness"]:
                parse_polynomial(w, 1)

    def test_scalarize_bytes_stable(self, problems, capsys):
        assert main(["scalarize", str(problems["g2"])]) == 0
        first = capsys.readouterr().out
        assert main(["scalarize", str(problems["g2"])]) == 0
        assert capsys.readouterr().out == first

    def test_homogenize_output(self, problems, capsys):
        assert main(["homogenize", str(problems["unb"]), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        value = float(payload["F_tilde_min"])
        assert abs(value - 0.3819660112501051) < 1e-4
        assert payload["d0"] == 0


class TestPipelines:
    def test_certify_verify_round_trip(self, problems, tmp_path, capsys):
        cert_path = tmp_path / "mat.qmc"
        assert main([
            "certify-simplex", str(problems["mat"]), "--out", str(cert_path),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert_path), str(problems["mat"])]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_relax_and_verify(self, problems, tmp_path, capsys):
        cert_path = tmp_path / "fx.qmc"
        sdpa_path = tmp_path / "fx.dat-s"
        rc = main([
            "relax", str(problems["fx"]), "--order", "1", "--json",
            "--emit-certificate", str(cert_path),
            "--export-sdpa", str(sdpa_path),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        gamma = float(payload["gamma"])
        assert abs(gamma + 1.0) < 1e-5
        cert = deserialize(cert_path.read_text())
        assert cert.mode == "numeric"
        from pmicert.sdpa import parse_sdpa

        data = parse_sdpa(sdpa_path.read_text())
        assert data.sizes == [2, 1]
        assert main([
            "verify", str(cert_path), str(problems["fx"]),
            "--mode", "numeric", "--tol", "1e-5",
            f"--gamma={Fraction(gamma)}",
        ]) == 0

    @pytest.mark.parametrize(
        "f, g, extra, expect",
        [
            (-(x() * x()), Polynomial.zero(1), [], {"status": "infeasible"}),
            (x(), Polynomial.const(1, -1), [], {"error": "relaxation appears unbounded above"}),
            (x(), Polynomial.const(1, 1) - x() * x(), ["--max-iter", "3"],
             {"error": "iteration budget 3 exhausted"}),
        ],
        ids=["infeasible", "unbounded", "budget"],
    )
    def test_relax_failure_is_exit_one_json(self, tmp_path, capsys, f, g, extra, expect):
        path = tmp_path / "p.pmi"
        path.write_text(dump_problem(
            ProblemData(1, 1, 1, SymPolyMatrix.scalar(f), SymPolyMatrix.scalar(g))
        ))
        rc = main(["relax", str(path), "--order", "1", "--json", *extra])
        captured = capsys.readouterr()
        assert rc == 1
        payload = json.loads(captured.out)
        assert expect.items() <= payload.items()
        assert "Traceback" not in captured.err

    def test_export_sdpa_stdout(self, problems, capsys):
        assert main(["export-sdpa", str(problems["fx"]), "--order", "1"]) == 0
        text = capsys.readouterr().out
        from pmicert.sdpa import parse_sdpa

        assert parse_sdpa(text).ncons == 3

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--C", "1e200000"),
            ("--ratio", "1e5"),
            ("--kappa", "1/0"),
            ("--C", "1+1*sqrt(2)"),
        ],
    )
    def test_bound_rational_option_rejected(self, capsys, flag, value):
        assert main(["bound", "--formula", "putinar-matrix", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1

    def test_bound_rational_option_forms(self, capsys):
        args = ["bound", "--formula", "perturbation", "--json", "--eta", "1"]
        assert main(args + ["--eps", "0.5", "--C", "3/2"]) == 0
        decimal = capsys.readouterr().out
        assert main(args + ["--eps", "1/2", "--C", "1.5"]) == 0
        assert capsys.readouterr().out == decimal

    @pytest.mark.parametrize("ratio", ["1", "1/8"])
    def test_bound_large_eta_reported_in_floating_point(self, capsys, ratio):
        # 8^(7 eta) alone has 2.1 million bits: never formed exactly, even
        # when ratio^(7 eta + 3) cancels it
        args = ["bound", "--formula", "putinar-matrix", "--eta", "100000",
                "--ratio", ratio, "--json"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        value = float(payload["value"])
        if value == float("inf"):
            assert float(payload["extras"]["log10"]) > 600000
        else:
            assert abs(value - 729 * 216 / 512) <= 1e-9 * value

    def test_bound_huge_C_cancelled_by_ratio(self, capsys):
        # C = 2^1100 exceeds a float, and ratio^(7 eta + 3) = 2^-14600 has
        # more bits than the exact budget: the float path takes the value
        # from its log, 2^-13000 or so, which is 0.0
        args = ["bound", "--formula", "putinar-matrix", "--C", str(2**1100),
                "--ratio", f"1/{2**200}", "--eta", "10", "--json"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert float(json.loads(out)["value"]) == 0.0

    def test_bound_eta_and_theta(self, capsys):
        assert main(["bound", "--formula", "theta", "--m", "3"]) == 0
        assert "42" in capsys.readouterr().out
        assert main(["bound", "--formula", "eta", "--setting", "scalar",
                     "--n", "1", "--m", "2", "--d-G", "1"]) == 0
        assert "6" in capsys.readouterr().out


class TestCommittedSamples:
    def test_samples_parse_and_run(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "samples"
        for name in (
            "interval_min_x.pmi",
            "matrix_target.pmi",
            "matrix_constraint.pmi",
            "unbounded_shifted_square.pmi",
        ):
            parse_problem((root / name).read_text())
        assert main(["scalarize", str(root / "matrix_constraint.pmi")]) == 0
        capsys.readouterr()
        assert main(["polya", str(root / "matrix_target.pmi")]) == 0
        capsys.readouterr()
