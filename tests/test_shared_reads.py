"""A certificate reader parses each distinct polynomial line and coefficient
text once, and the reconstruction folds each distinct multiplier vector
once; both must give exactly what the line-by-line, term-by-term reading
gives."""

import contextlib
import io
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from pmicert.ring import ExtRational, parse_ext_rational
from pmicert.algebra import (
    LineReader,
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    parse_polynomial,
)
import pmicert.algebra as algebra
import pmicert.certify as certify
from pmicert.certify import (
    CertificateParseError,
    MultiplierTerm,
    QMCertificate,
    _read_certificate,
    ball_constraint,
    deserialize,
    serialize,
    verify_certificate,
)
from pmicert.cli import main
from pmicert.problemio import load_problem
from conftest import random_poly, random_sym_matrix

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


class _OracleReader(LineReader):
    """The reader without a memo: every line and token parsed where it is
    read, and every matrix built by the public constructor from values."""

    @staticmethod
    def _value(token):
        if not (token.startswith("(") and token.endswith(")")):
            raise ValueError(f"malformed coefficient {token!r}")
        return parse_ext_rational(token[1:-1])

    def _parts(self, token):
        return self._value(token).parts()

    def sym_matrix(self, dim, what):
        if dim > self.lines_left():
            raise ValueError(f"{what} size {dim} is too large for the rest of the file")
        rows = []
        for r in range(dim):
            toks = self.line(f"{what} row").split()
            if len(toks) != r + 1:
                raise ValueError(f"{what} row {r} has {len(toks)} entries, expected {r + 1}")
            rows.append([self._value(tok) for tok in toks])
        return RationalSymMatrix([rows[i] + [rows[j][i] for j in range(i + 1, dim)]
                                  for i in range(dim)])

    def polynomial(self, nvars):
        line = self.line("a polynomial")
        if (line.count(" + ") + 1) * max(nvars, 1) > len(line):
            raise ValueError(f"more terms than fit on a line in {nvars} variables")
        return parse_polynomial(line, nvars)


def _oracle_parse(text):
    return _OracleReader(text).parse(_read_certificate, CertificateParseError)


def _oracle_reconstruction(cert, G):
    """sigma_0 from the SOS blocks alone, plus one scale P^T G P per term."""
    sos = QMCertificate(cert.nvars, cert.ell, cert.m, cert.k, cert.mode, cert.sos_blocks)
    out = PolyMatrix(sos.reconstruction(G).entries)
    for term in cert.multipliers:
        out = out + congruence(term.matrix, G).scale(term.scale)
    return out.entries


def _assert_same_certificate(got, want):
    for name in ("nvars", "ell", "m", "k", "mode", "sphere_multiplier"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.sos_blocks) == len(want.sos_blocks)
    for a, b in zip(got.sos_blocks, want.sos_blocks):
        assert a.basis == b.basis and a.gram == b.gram
    assert len(got.multipliers) == len(want.multipliers)
    for a, b in zip(got.multipliers, want.multipliers):
        assert a.scale == b.scale and a.matrix == b.matrix
        for p, q in zip(*(sum(t.matrix.entries, []) for t in (a, b))):
            assert list(p.terms) == list(q.terms)


@pytest.fixture(scope="module")
def workload_certificates(tmp_path_factory):
    """(argv, problem, gamma or None, certificate text) of every
    certify-simplex job of the benchmark's certify workload and every build
    of its verify workload, at seed 7, written by the CLI."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    workdir = tmp_path_factory.mktemp("workloads")
    builds = [(job["argv"], job["writes"]["out"], job["problem"])
              for job in workloads.generate("certify", 7, str(workdir))["jobs"]
              if job["argv"][0] == "certify-simplex"]
    builds += [(b["argv"], b["cert"], b["argv"][1])
               for b in workloads.generate("verify", 7, str(workdir))["builds"]]
    out = []
    with contextlib.chdir(workdir):
        for argv, cert, problem in builds:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            gamma = json.loads(stdout.getvalue()).get("gamma")
            out.append((argv, load_problem(problem), gamma,
                        pathlib.Path(cert).read_text(encoding="utf-8")))
    return out


class TestWorkloadCertificates:
    def test_deserialize_equals_memo_free_parse(self, workload_certificates):
        assert len(workload_certificates) == 32
        for _, _, _, text in workload_certificates:
            cert = deserialize(text)
            _assert_same_certificate(cert, _oracle_parse(text))
            assert serialize(cert) == text

    def test_repeats_are_shared_and_reconstruction_unchanged(self, workload_certificates):
        shared = 0
        for argv, prob, gamma, text in workload_certificates:
            cert, oracle = deserialize(text), _oracle_parse(text)
            entries = [p for t in cert.multipliers for row in t.matrix.entries for p in row]
            lines = {}
            for p in entries:
                assert lines.setdefault(p.to_text(), p) is p
            shared += len(entries) - len(lines)
            # the oracle parse shares no object, so nothing of it merges
            assert cert.reconstruction(prob.G) == oracle.reconstruction(prob.G)
            mode = "numeric" if gamma is not None else "exact"
            F = prob.F
            if gamma is not None:
                g = ExtRational(Fraction(float(gamma)))
                F = SymPolyMatrix([[F[i, j] - g if i == j else F[i, j]
                                    for j in range(F.size)] for i in range(F.size)])
            assert verify_certificate(F, prob.G, cert, mode=mode, tol=1e-6).ok, argv
        assert shared > 0


def _text(nvars, mults, blocks=""):
    """A qmcert-v1 text of 1 x 1 multipliers: mults is a list of
    (scale token, polynomial line)."""
    body = "".join(f"multiplier {i} scale {s} rows 1 cols 1\n{line}\n"
                   for i, (s, line) in enumerate(mults))
    return (f"qmcert-v1\nmode exact\nnvars {nvars}\nsize 1\nconstraint-size 1\ndegree 8\n"
            f"{blocks or 'sos-blocks 0'}\nmultipliers {len(mults)}\n{body}"
            "sphere-multiplier none\nend\n")


class TestLineMemo:
    def test_repeated_lines_and_tokens_are_one_object(self, monkeypatch):
        line = "(1/2) * x1^2*x2^0 + (-1/3) * x1^0*x2^1"
        blocks = "sos-blocks 1\nblock 0 basis 2\n0 0\n1 0\ngram\n(0/1)\n(0/1) (0/1)"
        text = _text(2, [("(1/2)", line), ("(1/2)", line), ("(0/1)", "(1/1) * x1^0*x2^0"),
                         ("(1/2)", line)], blocks)
        parsed, real = [], algebra.parse_parts
        monkeypatch.setattr(algebra, "parse_parts", lambda t: parsed.append(t) or real(t))
        r = LineReader(text)
        cert = r.parse(_read_certificate, CertificateParseError)
        # one memo entry per distinct line, one per distinct coefficient text,
        # and each text parsed once: the Gram tokens, the scales and the
        # coefficients of the polynomial lines share one memo
        assert sorted(parsed) == sorted(r.coefficients) == ["-1/3", "0/1", "1/1", "1/2"]
        assert len(r.memo) == 2
        _assert_same_certificate(cert, _oracle_parse(text))
        polys = [t.matrix[0, 0] for t in cert.multipliers]
        assert polys[0] is polys[1] is polys[3] and polys[2] is not polys[0]
        assert r.coefficients["1/2"] == (1, 0, 2, 0)
        scales = [t.scale for t in cert.multipliers]
        assert scales[0] == scales[1] == scales[3] == ExtRational(Fraction(1, 2))
        assert cert.sos_blocks[0].gram._f == (((0, 0), (0,)), ((0, 0), (0,)), 0, 1)

    def test_memo_keeps_one_entry_per_distinct_line(self):
        r = LineReader("(1/1) * x1^2\n" * 10_000)
        first = r.polynomial(1)
        assert all(r.polynomial(1) is first for _ in range(9_999))
        assert len(r.memo) == 1
        body = "".join(f"multiplier {u} scale (1/1) rows 1 cols 1\n(1/1) * x1^1\n"
                       for u in range(5_000))
        r = LineReader("qmcert-v1\nmode exact\nnvars 1\nsize 1\nconstraint-size 1\n"
                       f"degree 2\nsos-blocks 0\nmultipliers 5000\n{body}"
                       "sphere-multiplier none\nend\n")
        cert = r.parse(_read_certificate, CertificateParseError)
        assert len(cert.multipliers) == 5_000
        assert len(r.memo) == 1  # the line
        assert len(r.coefficients) == 1  # the scale and the line's coefficient

    def test_key_holds_nvars(self):
        r = LineReader("(1/1) * x1^1*x2^1\n(1/1) * x1^1*x2^1\n")
        assert r.polynomial(2) == Polynomial(2, {(1, 1): 1})
        with pytest.raises(CertificateParseError, match=r"^line 2: variable x2 out of range"):
            r.parse(lambda r: r.polynomial(1), CertificateParseError)

    @pytest.mark.parametrize("nvars, bad, message", [
        (1, "(1/1) * x1^1*x1^2", "repeated in one monomial"),
        (1, "(1/1) * x3^1", "out of range"),
        (8, "(1/1) + (1/1)", "more terms than fit"),
    ])
    def test_malformed_repeated_line_fails_at_its_first_line(self, nvars, bad, message):
        good = Polynomial.const(nvars, 1).to_text()
        text = _text(nvars, [("(1/1)", good), ("(1/1)", bad), ("(1/1)", good), ("(1/1)", bad)])
        first = text.splitlines().index(bad) + 1
        for parse in (deserialize, _oracle_parse):
            with pytest.raises(CertificateParseError, match=f"^line {first}: .*{message}"):
                parse(text)

    def test_malformed_repeated_token_fails_at_its_first_line(self):
        text = _text(1, [("(1/1)", "(1/1) * x1^1"), ("(1/0)", "(1/1) * x1^1"),
                         ("(1/0)", "(1/1) * x1^1")])
        first = text.splitlines().index("multiplier 1 scale (1/0) rows 1 cols 1") + 1
        for parse in (deserialize, _oracle_parse):
            with pytest.raises(CertificateParseError, match=f"^line {first}: "):
                parse(text)


ROOT2 = ExtRational.sqrt(2)


class TestSharedVectors:
    """Terms sharing vec(P) fold as one square at the summed scale."""

    @staticmethod
    def _cert(rng, n, ell, m, scales):
        vecs = [PolyMatrix([[random_poly(rng, n, 1) for _ in range(ell)] for _ in range(m)])
                for _ in range(3)]
        mults = []
        for k, scale in enumerate(scales):
            P = vecs[k % 3]
            if k % 2:  # a new matrix over the same entry objects is the same vector
                P = PolyMatrix([row[:] for row in P.entries])
            mults.append(MultiplierTerm(scale, P))
        return QMCertificate(n, ell, m, 8, "exact", [], mults)

    SCALES = [
        [ExtRational(Fraction(1, 3)), ExtRational(0), ExtRational(2), ExtRational(0),
         ExtRational(Fraction(5, 7)), ExtRational(1), ExtRational(0)],
        [ROOT2 / 2, ExtRational(1), ROOT2, ExtRational(0), ROOT2 + 3, ExtRational(2) - ROOT2],
        [ExtRational(0), ExtRational(0), ExtRational(0), ROOT2, ROOT2 * 3],
    ]

    @pytest.mark.parametrize("case", range(9))
    def test_equals_term_by_term_sum(self, case, rng):
        n, ell, m = 1 + case % 2, 1 + case % 3, 1 + case // 3
        G = random_sym_matrix(rng, m, n, 2)
        cert = self._cert(rng, n, ell, m, self.SCALES[case % 3])
        assert cert.reconstruction(G).entries == _oracle_reconstruction(cert, G)

    def test_each_distinct_vector_folded_once(self, rng, monkeypatch):
        folded = []
        real = certify._fold_squares

        def counting(squares, w):
            squares = list(squares)
            folded.append(len(squares))
            return real(squares, w)

        monkeypatch.setattr(certify, "_fold_squares", counting)
        G = random_sym_matrix(rng, 2, 2, 1)
        cert = self._cert(rng, 2, 2, 2, self.SCALES[1])
        expected = _oracle_reconstruction(cert, G)
        folded.clear()
        assert cert.reconstruction(G).entries == expected
        assert folded == [3]
        # equal polynomials that are different objects are different squares
        copy = QMCertificate(2, 2, 2, 8, "exact", [], [
            MultiplierTerm(t.scale, PolyMatrix([[p + 0 for p in row] for row in t.matrix.entries]))
            for t in cert.multipliers])
        folded.clear()
        assert copy.reconstruction(G) == cert.reconstruction(G)
        assert folded == [6, 3]

    def test_parsed_repeats_with_distinct_scales(self):
        G = ball_constraint(1)
        line = "(1/1) * x1^1 + (-1/2) * x1^0"
        scales = ["(1/3)", "(0/1)", f"({ROOT2 / 2})", "(2/1)", f"({ROOT2 + 1})"]
        cert = deserialize(_text(1, [(s, line) for s in scales]))
        assert cert.multipliers[0].matrix[0, 0] is cert.multipliers[4].matrix[0, 0]
        assert cert.reconstruction(G).entries == _oracle_reconstruction(cert, G)
        total = sum((t.scale for t in cert.multipliers), ExtRational(0))
        p = cert.multipliers[0].matrix[0, 0]
        assert cert.reconstruction(G)[0, 0] == p * p * G[0, 0] * total
