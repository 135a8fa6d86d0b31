import json
import math
import signal
from fractions import Fraction
from pathlib import Path

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


def _problem_doc(**changes) -> str:
    doc = {
        "n": 1, "ell": 1, "m": 1,
        "F": [{"row": 0, "col": 0, "terms": [[[0], "1"]]}],
        "G": [{"row": 0, "col": 0, "terms": [[[0], "1"]]}],
    }
    doc.update(changes)
    return json.dumps(doc)


class TestMalformedProblems:
    @pytest.mark.parametrize(
        "text, where",
        [
            ("5", "top level"),
            (_problem_doc(F=5), "F must be a list"),
            (_problem_doc(F=[{"row": 0, "col": 0, "terms": 5}]), r"F\[0,0\]: terms"),
            (_problem_doc(F=[{"row": 0, "col": 0, "terms": [[5, "1"]]}]),
             r"F\[0,0\]: term 0 exponents"),
            (_problem_doc(F=[{"row": 0, "col": 0, "terms": [[[-1], "1"]]}]),
             r"F\[0,0\]: term 0 exponent"),
            (_problem_doc(F=[[0, 0]]), "F: entries"),
            (_problem_doc(G=[{"row": "x", "col": 0}]), "G: row"),
            (_problem_doc(n=None), "n must be"),
            (_problem_doc(ell=1e400), "ell must be"),
            (_problem_doc(m=10**6), "at most"),
            # an ell no larger than the file, but an ell x ell grid of 900 million cells
            (_problem_doc(ell=30000, F=[]) + " " * 30000, "at most"),
            ('{"n": ' + "9" * 5000 + "}", "not valid JSON"),
            # only JSON integers: no truncated floats, digit strings or booleans
            (_problem_doc(F=[{"row": 0, "col": 0, "terms": [[[1.5], "1"]]}]),
             r"F\[0,0\]: term 0 exponent"),
            (_problem_doc(F=[{"row": 0.9, "col": 0, "terms": [[[0], "1"]]}]), "F: row"),
            (_problem_doc(n="2"), "n must be"),
            (_problem_doc(G=[{"row": 0, "col": True, "terms": [[[0], "1"]]}]), "G: col"),
        ],
        ids=["top-level-number", "F-not-list", "terms-not-list", "exponents-not-list",
             "negative-exponent", "entry-not-object", "row-not-int", "n-null",
             "ell-overflows", "m-beyond-text", "ell-grid-beyond-text", "digit-limit",
             "exponent-float", "row-float", "n-string", "col-bool"],
    )
    def test_format_error_names_field_and_exits_two(self, tmp_path, capsys, text, where):
        from pmicert.problemio import ProblemFormatError

        with pytest.raises(ProblemFormatError, match=where):
            parse_problem(text)
        bad = tmp_path / "bad.pmi"
        bad.write_text(text)
        assert main(["scalarize", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestRepeatedTerms:
    """Two terms of one entry with the same exponents are rejected, as two
    conflicting entries are: neither the last nor the sum is a safe reading."""

    TEXT = _problem_doc(F=[{"row": 0, "col": 0, "terms": [[[1], "1"], [[1], "2"]]}])

    def test_parse_rejects_repeated_exponents(self):
        from pmicert.problemio import ProblemFormatError

        with pytest.raises(ProblemFormatError) as exc:
            parse_problem(self.TEXT)
        assert str(exc.value) == "F[0,0]: term 1 repeats exponents [1]"

    def test_cli_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmi"
        bad.write_text(self.TEXT)
        assert main(["scalarize", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "error: F[0,0]: term 1 repeats exponents [1]\n"

    def test_distinct_exponents_still_read(self):
        text = _problem_doc(F=[{"row": 0, "col": 0, "terms": [[[1], "1"], [[0], "2"]]}])
        assert parse_problem(text).F[0, 0] == x() + 2


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

    @pytest.mark.parametrize("which", ["certificate", "problem"])
    def test_unreadable_path_is_exit_two(self, problems, tmp_path, capsys, which):
        cert = tmp_path / "c.qmc"
        assert main(["certify-simplex", str(problems["mat"]), "--out", str(cert)]) == 0
        capsys.readouterr()
        args = [str(cert), str(problems["mat"])]
        args[["certificate", "problem"].index(which)] = str(tmp_path)  # a directory
        assert main(["verify", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_verify_high_degree_residual_is_bounded(self, tmp_path, capsys, mode):
        # 180 bytes whose residual -x1^4000 has C(4002, 2) = 8,006,001
        # Bernstein coefficients: the norm is not computed, and the verdict
        # comes in well under the 2 s alarm
        cert = tmp_path / "big.qmc"
        cert.write_text(
            "qmcert-v1\nmode exact\nnvars 2\nsize 1\nconstraint-size 1\ndegree 4000\n"
            "sos-blocks 0\nmultipliers 1\nmultiplier 0 scale (1/1) rows 1 cols 1\n"
            "(1/1) * x1^2000*x2^0\nsphere-multiplier none\nend\n"
        )
        assert len(cert.read_bytes()) == 180
        prob = tmp_path / "zero.pmi"
        prob.write_text(dump_problem(ProblemData(
            2, 1, 1, SymPolyMatrix.scalar(Polynomial.zero(2)),
            SymPolyMatrix.scalar(Polynomial.const(2, 1)))))

        def expire(signum, frame):
            raise TimeoutError("verify ran past 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            code = main(["verify", str(cert), str(prob), "--mode", mode, "--json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual_norm"] == "inf"
        expected = "nonzero residual" if mode == "exact" else "residual of degree 4000"
        assert any(expected in msg for msg in payload["messages"])

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_verify_dense_residual_is_bounded_by_its_conversion(self, tmp_path, capsys, mode):
        # a 16 KB problem with a dense F of degree 1023 in one variable holds
        # 1,024 coefficients, but its residual's conversion visits C(1025, 2)
        # = 524,800 pairs beta <= alpha: past the budget, so the norm is not
        # computed (it took 29 s when the budget counted coefficients)
        cert = tmp_path / "empty.qmc"
        cert.write_text("qmcert-v1\nmode exact\nnvars 1\nsize 1\nconstraint-size 1\n"
                        "degree 1023\nsos-blocks 0\nmultipliers 0\nsphere-multiplier none\nend\n")
        assert len(cert.read_bytes()) == 120
        dense = Polynomial(1, {(e,): Fraction(e % 7 + 1, e % 5 + 1) for e in range(1024)})
        prob = tmp_path / "dense.pmi"
        prob.write_text(json.dumps(json.loads(dump_problem(ProblemData(
            1, 1, 1, SymPolyMatrix.scalar(dense),
            SymPolyMatrix.scalar(Polynomial.const(1, 1)))))))
        assert 15_000 < len(prob.read_bytes()) < 17_000

        def expire(signum, frame):
            raise TimeoutError("verify ran past 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            code = main(["verify", str(cert), str(prob), "--mode", mode, "--json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual_norm"] == "inf"
        expected = "nonzero residual" if mode == "exact" else "residual of degree 1023"
        assert any(expected in msg for msg in payload["messages"])

    def test_verify_failure_is_exit_one(self, problems, tmp_path, capsys):
        assert main([
            "certify-simplex", str(problems["mat"]),
            "--out", str(tmp_path / "c.qmc"),
        ]) == 0
        # tamper: verify against the wrong target
        assert main([
            "verify", str(tmp_path / "c.qmc"), str(problems["fx"]),
        ]) == 1

    @staticmethod
    def _golden_with(tmp_path, edit):
        """The golden matrix_target certificate, its lines changed by edit,
        written to a file, and the problem it answers."""
        golden = Path(__file__).resolve().parent / "golden"
        lines = (golden / "matrix_target.qmc").read_text().splitlines()
        edit(lines)
        cert = tmp_path / "edited.qmc"
        cert.write_text("\n".join(lines) + "\n")
        return cert, golden.parent.parent / "samples" / "matrix_target.pmi"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_verify_gram_mixing_two_radicands_is_exit_two(self, tmp_path, capsys, json_flag):
        # the last Gram row of the golden certificate set to mix sqrt(2) and
        # sqrt(3): the reader rejects it at that row, no traceback
        def mix(lines):
            lines[lines.index("multipliers 2") - 1] = "(1/2) (0/1) (1/1*sqrt(2)) (1/1*sqrt(3))"

        cert, target = self._golden_with(tmp_path, mix)
        row = cert.read_text().splitlines().index("multipliers 2")  # 1-based, the row before
        capsys.readouterr()
        assert main(["verify", str(cert), str(target), "--mode", "exact", *json_flag]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: line {row}: cannot mix sqrt(2) with sqrt(3)\n"

    def test_verify_empty_gram_block_is_exit_two(self, tmp_path, capsys):
        # block 0 with no basis: a 0x0 Gram, rejected by the reader at its
        # 'gram' line, no traceback
        def empty(lines):
            start = next(i for i, line in enumerate(lines) if line.startswith("block 0 basis "))
            lines[start:lines.index("multipliers 2")] = ["block 0 basis 0", "gram"]

        cert, target = self._golden_with(tmp_path, empty)
        line = cert.read_text().splitlines().index("gram") + 1
        capsys.readouterr()
        assert main(["verify", str(cert), str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: line {line}: empty matrix\n"

    @pytest.mark.parametrize("argv", [
        ["relax", "{problem}", "--order", "2", "--tol", "nan", "--max-iter", "200",
         "--export-sdpa", "{out}"],
        ["relax", "{problem}", "--order", "2", "--tol", "-1", "--max-iter", "200",
         "--export-sdpa", "{out}"],
        ["relax", "{problem}", "--order", "2", "--tol", "0", "--max-iter", "200",
         "--export-sdpa", "{out}"],
        ["relax", "{problem}", "--order", "2", "--tol", "inf", "--export-sdpa", "{out}"],
        ["relax", "{problem}", "--order", "2", "--max-iter", "0", "--export-sdpa", "{out}"],
        ["verify", "{cert}", "{problem}", "--mode", "numeric", "--gamma=5", "--tol", "inf"],
        ["verify", "{cert}", "{problem}", "--mode", "numeric", "--gamma=5", "--tol", "-1"],
        ["verify", "{cert}", "{problem}", "--mode", "numeric", "--gamma=5", "--tol", "nan"],
        ["homogenize", "{problem}", "--refine", "-1"],
    ], ids=["relax-tol-nan", "relax-tol-negative", "relax-tol-zero", "relax-tol-inf",
            "relax-max-iter-zero", "verify-tol-inf", "verify-tol-negative", "verify-tol-nan",
            "homogenize-refine-negative"])
    def test_meaningless_tolerance_or_budget_is_exit_two(self, tmp_path, capsys, argv):
        # no run meets these or they accept anything: refused before the work,
        # where verify --tol inf would pass a residual norm of 6 at gamma 5,
        # and before relax writes its SDPA file
        problem = Path(__file__).resolve().parent.parent / "samples" / "interval_min_x.pmi"
        cert, out = tmp_path / "c.qmc", tmp_path / "x.dat-s"
        if argv[0] == "verify":
            assert main(["relax", str(problem), "--order", "2",
                         "--emit-certificate", str(cert)]) == 0
        capsys.readouterr()
        assert main([a.format(problem=problem, cert=cert, out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_bound_context_of_a_large_constraint(self, tmp_path, capsys):
        # G = diag(1 - x^2, 1, 1, 1, 1): its eta estimate is past the exact
        # budget, and the context reports it rather than 'unavailable'
        from pmicert.certify import MultiplierTerm, QMCertificate, serialize
        from pmicert.algebra import PolyMatrix
        from pmicert.ring import ExtRational

        zero, one = Polynomial.zero(1), Polynomial.const(1, 1)
        G = SymPolyMatrix([[one - x() * x() if i == j == 0 else one if i == j else zero
                            for j in range(5)] for i in range(5)])
        prob = tmp_path / "g5.pmi"
        prob.write_text(dump_problem(ProblemData(1, 1, 5, SymPolyMatrix.scalar(x() + 2), G)))
        e1 = PolyMatrix.column([one] + [zero] * 4)
        witness = QMCertificate(1, 1, 5, 2, "exact", [], [MultiplierTerm(ExtRational(1), e1)])
        (tmp_path / "w.qmc").write_text(serialize(witness))
        args = ["certify-simplex", str(prob), "--ball-witness", str(tmp_path / "w.qmc"), "--json"]
        assert main(args) == 0
        context = json.loads(capsys.readouterr().out)["bound_formula_context"]
        assert context != "unavailable" and "eta estimate inf" in context

    def test_trivial_ball_guard(self, problems, capsys):
        assert main(["certify-simplex", str(problems["unb"])]) == 2

    def test_ball_guard_names_the_missing_flag(self, problems, capsys):
        # certify-simplex has no --trivial-ball flag: the trivial witness is
        # what it uses without --ball-witness
        assert main(["certify-simplex", str(problems["unb"])]) == 2
        err = capsys.readouterr().err
        assert "--trivial-ball" not in err
        assert err.startswith("error: without --ball-witness G must be [1 - ||x||^2]")


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


class TestSphereCertificates:
    """A certificate with a sphere-multiplier section declares an identity
    with the term H (||x||^2 - 1); verify checks that term, accepts it on
    forms only, and says so."""

    @staticmethod
    def _lifted(tmp_path):
        import random

        from conftest import synthetic_sphere_certificate
        from pmicert.certify import serialize

        prob, F_tilde, cert = synthetic_sphere_certificate(random.Random(1), ball_constraint(1), 1)
        problem = tmp_path / "lifted.pmi"
        problem.write_text(dump_problem(
            ProblemData(F_tilde.nvars, F_tilde.size, prob.G_hat.size, F_tilde, prob.G_hat)))
        return serialize(cert).splitlines(), problem

    def _verify(self, tmp_path, lines, problem, *flags):
        cert = tmp_path / "sphere.qmc"
        cert.write_text("\n".join(lines) + "\n")
        return main(["verify", str(cert), str(problem), "--mode", "exact", *flags])

    def test_sphere_term_is_checked_and_stated(self, tmp_path, capsys):
        lines, problem = self._lifted(tmp_path)
        assert self._verify(tmp_path, lines, problem) == 0
        assert capsys.readouterr().out == ("PASS\nthe identity includes the sphere term "
                                           "H (||x||^2 - 1)\nresidual norm: 0.0\n")
        assert self._verify(tmp_path, lines, problem, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["sphere"] is True

    def test_sphere_term_needs_forms(self, tmp_path, capsys):
        # H (x1^2 - 1) = F for H = [1] and F = x1^2 - 1, yet F(0) = -1 on
        # G = [1]: modulo the sphere this proves nothing about F off it
        from pmicert.certify import QMCertificate, serialize

        one = Polynomial.const(1, 1)
        problem = tmp_path / "plain.pmi"
        problem.write_text(dump_problem(ProblemData(
            1, 1, 1, SymPolyMatrix.scalar(x() * x() - 1), SymPolyMatrix.scalar(one))))
        cert = QMCertificate(1, 1, 1, 2, "exact", [], [], SymPolyMatrix.scalar(one))
        assert self._verify(tmp_path, serialize(cert).splitlines(), problem, "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["sphere"] is True
        assert payload["messages"] == [
            "sphere multiplier needs F homogeneous of positive degree and G homogeneous"]

    def test_ball_witness_with_sphere_term_rejected(self, problems, tmp_path, capsys):
        # H = [-1] proves 1 - ||x||^2 modulo the sphere only; the simplex
        # assembly has no place for H, so the witness is refused up front
        from pmicert.certify import QMCertificate, serialize

        witness = QMCertificate(1, 1, 1, 2, "exact", [], [],
                                SymPolyMatrix.scalar(Polynomial.const(1, -1)))
        (tmp_path / "w.qmc").write_text(serialize(witness))
        args = ["certify-simplex", str(problems["mat"]), "--ball-witness", str(tmp_path / "w.qmc")]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: ball witness rejected: ['sphere multiplier needs F homogeneous "
                       "of positive degree and G homogeneous']\n")

    def test_tampered_sphere_multiplier_fails(self, tmp_path, capsys):
        lines, problem = self._lifted(tmp_path)
        at = lines.index("sphere-multiplier 1") + 1
        coeff = lines[at].split(" ")[0]
        lines[at] = lines[at].replace(coeff, f"({Fraction(coeff[1:-1]) + 1})", 1)
        assert self._verify(tmp_path, lines, problem) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: nonzero residual")
        assert "the identity includes the sphere term" in out


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

    @pytest.mark.parametrize("eta", ["1000000", "30000000"])
    def test_perturbation_beyond_exact_budget_is_float(self, capsys, eta):
        args = ["bound", "--formula", "perturbation", "--eps", "1/2", "--eta", eta, "--json"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"formula": "perturbation", "value": "inf"}

    @pytest.mark.parametrize(
        "formula, extra, code",
        [("putinar-matrix", [], 0), ("perturbation", [], 0), ("perturbation", ["--eps", "2"], 0),
         # 8^(7 eta) and (1/8)^(7 eta + 3) overflow both ways
         ("putinar-matrix", ["--ratio", "1/8"], 2), ("rate", [], 0)],
    )
    def test_bound_eta_past_float_range(self, capsys, formula, extra, code):
        args = ["bound", "--formula", formula, "--eta", str(10**400), *extra]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.count("error:") == (code == 2) and err.count("\n") == (code == 2)

    @pytest.mark.parametrize("flag, value", [("--C", str(2**1100)), ("--eta", str(10**400))],
                             ids=["C_2_1100", "eta_10_400"])
    def test_rate_past_float_range_is_finite(self, capsys, flag, value):
        # C = 2^1100 contributes 1100 / 10 bits; with eta = 10^400 the rate
        # tends to 3 * 8 * d^2 = 24 at d = 1
        assert main(["bound", "--formula", "rate", flag, value, "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rate = float(json.loads(out)["value"])
        expected = 3 * 330225942528**0.1 * 2.0**110 if flag == "--C" else 24.0
        assert math.isfinite(rate) and abs(rate - expected) <= 1e-12 * expected

    def test_bound_eta_and_theta(self, capsys):
        assert main(["bound", "--formula", "theta", "--m", "3"]) == 0
        assert "42" in capsys.readouterr().out
        assert main(["bound", "--formula", "eta", "--setting", "scalar",
                     "--n", "1", "--m", "2", "--d-G", "1"]) == 0
        assert "6" in capsys.readouterr().out
        # 1.8 Gbit if built exactly: past the exact budget it is inf
        assert main(["bound", "--formula", "eta", "--m", "8", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "inf"

    def test_theta_at_the_digit_limit_prints_exactly(self, capsys):
        # theta(904) has 4,295 digits, within Python's default limit of 4,300
        from pmicert.bounds import theta

        assert main(["bound", "--formula", "theta", "--m", "904", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == str(theta(904))

    @pytest.mark.parametrize("m, digits", [(905, 4301), (2000, 10873), (50000, 411427)])
    def test_theta_past_the_digit_limit_exits_before_any_work(self, capsys, monkeypatch,
                                                              m, digits):
        import sys
        import time

        from pmicert import bounds

        if sys.get_int_max_str_digits() != 4300:
            pytest.skip("needs Python's default int-to-str digit limit")
        formed = []
        real_theta = bounds.theta
        monkeypatch.setattr(bounds, "theta", lambda k: formed.append(k) or real_theta(k))
        start = time.process_time()
        assert main(["bound", "--formula", "theta", "--m", str(m)]) == 2
        assert time.process_time() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert f"theta({m}) has {digits} decimal digits" in err
        # only next to the limit is theta(m) formed, to count its digits exactly
        assert formed == ([m] if m == 905 else [])


class TestPastFloatRange:
    """F = 10^e I + x E on the interval: exactly PD whatever e is."""

    @staticmethod
    def _problem(tmp_path, e):
        big = Polynomial.const(1, 10**e)
        F = SymPolyMatrix([[big, x()], [x(), big]])
        path = tmp_path / f"big{e}.pmi"
        path.write_text(dump_problem(ProblemData(1, 2, 1, F, ball_constraint(1))))
        return str(path)

    @pytest.mark.parametrize("e", [200, 400])
    def test_certify_and_verify(self, tmp_path, capsys, e):
        prob, cert = self._problem(tmp_path, e), str(tmp_path / "c.qmc")
        assert main(["certify-simplex", prob, "--out", cert]) == 0
        capsys.readouterr()
        assert main(["verify", cert, prob, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["gram_margins"] == ["5e+199" if e == 200 else "inf"]

    def test_polya_advisory_at_1e200(self, tmp_path, capsys):
        assert main(["polya", self._problem(tmp_path, 200), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["advisory_degree"] == 1 and "advisory_note" not in payload
        assert payload["pd_margins"] == {"0": "1e+200", "1": "1e+200"}

    def test_polya_advisory_note_at_1e400(self, tmp_path, capsys):
        prob = self._problem(tmp_path, 400)
        assert main(["polya", prob, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["advisory_degree"] is None and payload["fmin_estimate"] is None
        note = payload["advisory_note"]
        assert note and payload["pd_margins"] == {"0": "inf", "1": "inf"}
        assert main(["polya", prob]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"advisory degree bound: not computed ({note})"


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


class TestOneParserPerProcess:
    """main builds its parser once per process; a later call must behave as
    it would in a fresh process."""

    # three calls, each output and exit code kept apart; SystemExit is how
    # argparse leaves on a usage error
    CHILD = """
import contextlib, io, json, sys
from pmicert.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
"""

    @staticmethod
    def _run(args, cwd):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
        proc = subprocess.run([sys.executable, "-c", TestOneParserPerProcess.CHILD,
                               json.dumps(args)], cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_reused_parser_matches_fresh_processes(self, problems, tmp_path):
        assert main(["certify-simplex", str(problems["mat"]), "--out", str(tmp_path / "c.qmc")]) == 0
        calls = [
            ["verify", str(tmp_path / "c.qmc"), str(problems["mat"])],
            ["no-such-command", "x"],
            ["certify-simplex", str(problems["mat"]), "--out", str(tmp_path / "d.qmc"), "--json"],
        ]
        together = self._run(calls, tmp_path)
        fresh = [self._run([argv], tmp_path)[0] for argv in calls]
        assert together == fresh
        assert [code for _, _, code in together] == [0, 2, 0]
        assert "invalid choice: 'no-such-command'" in together[1][1]

    @pytest.mark.parametrize("argv, golden", [(["--help"], "help.txt"),
                                              (["verify", "--help"], "help_verify.txt")])
    def test_help_text_is_pinned(self, argv, golden, monkeypatch, capsys):
        import pathlib

        monkeypatch.setenv("COLUMNS", "80")
        expected = (pathlib.Path(__file__).resolve().parent / "golden" / golden).read_text()
        for _ in range(2):  # the second call reuses the parser
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == expected
