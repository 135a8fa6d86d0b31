"""Command-line interface.

Exit codes: 0 success, 1 verification or feasibility failure, 2 input error.
All outputs are deterministic for fixed inputs; --json swaps the human text
for machine-readable JSON (sorted keys).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .ring import parse_ext_rational
from .algebra import PolyMatrix, SymPolyMatrix
from . import bounds as bounds_mod
from .bounds import BoundInputs
from .certify import (
    SHAPE_TABLE_SIZE,
    ball_constraint,
    deserialize,
    serialize,
    trivial_ball_witness,
    verify_certificate,
    assemble_simplex_putinar,
)
from .homogenize import EmptyFeasibleSample, estimate_homogenized_min, lift_problem
from .polya import NotPositiveDefiniteOnSimplex, advisory, polya_certificate
from .problemio import load_problem
from .relax import (
    Infeasible,
    MaxIterationsError,
    SolverError,
    build_relaxation,
    check_solvable,
    extract_certificate,
    relaxation_size,
    solve_sdp,
)
from .scalarize import charpoly_scalarization, scalarize
from .sdpa import export_sdpa


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _parse_rational_arg(flag: str, text: str) -> Fraction:
    """A rational option value, bounded by its text (no exponent notation)."""
    try:
        return parse_ext_rational(text).as_fraction()
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_bound(args) -> int:
    formula = args.formula
    if formula == "theta":
        value = bounds_mod.theta_decimal(args.m)
        _emit(args, {"formula": "theta", "m": args.m, "value": value},
              f"theta({args.m}) = {value}")
        return 0
    if formula == "eta":
        value = bounds_mod.eta_estimate(args.n, args.m, args.d_G, args.setting)
        _emit(args, {"formula": "eta", "setting": args.setting, "value": str(value)},
              f"eta estimate ({args.setting}) = {value}")
        return 0
    if formula == "perturbation":
        value = bounds_mod.perturbation_bound(
            _parse_rational_arg("--eps", args.eps),
            args.eta_int,
            _parse_rational_arg("--C", args.C),
        )
        _emit(args, {"formula": "perturbation", "value": str(value)},
              f"k >= {value}  (C * eps^(-7 eta - 3))")
        return 0
    inputs = BoundInputs(
        n=args.n,
        m=args.m,
        d=args.d,
        d_G=args.d_G,
        ratio=_parse_rational_arg("--ratio", args.ratio),
        kappa=_parse_rational_arg("--kappa", args.kappa),
        eta=args.eta_int,
        C=_parse_rational_arg("--C", args.C),
    )
    if formula == "rate":
        eps = bounds_mod.convergence_rate(inputs, args.order, args.f_norm)
        _emit(args, {"formula": "rate", "order": args.order, "value": repr(eps)},
              f"relaxation error bound at order {args.order}: {eps!r}")
        return 0
    fn = {
        "putinar-matrix": bounds_mod.putinar_matrix_bound,
        "putinar-scalar": bounds_mod.putinar_scalar_bound,
        "licq": bounds_mod.licq_bound,
        "pv": bounds_mod.pv_bound,
    }[formula]
    report = fn(inputs)
    lines = [f"formula: {report.formula_id}", f"k >= {report.value}"]
    lines.append("factors:")
    for name, value in report.factors:
        lines.append(f"  {name:<18} {value}")
    for extra, value in sorted(report.extras.items()):
        lines.append(f"{extra}: {value}")
    for caveat in report.caveats:
        lines.append(f"caveat: {caveat}")
    _emit(args, report.as_dict(), "\n".join(lines))
    return 0


def _cmd_polya(args) -> int:
    prob = load_problem(args.problem)
    try:
        cert = polya_certificate(prob.F, args.max_degree)
    except NotPositiveDefiniteOnSimplex as exc:
        payload = {"error": str(exc)}
        if exc.witness is not None:
            payload["witness"] = [str(c) for c in exc.witness]
        _emit(args, payload, f"FAIL: {exc}")
        return 1
    if args.out:
        from .polya import serialize_polya

        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_polya(cert))
    adv = advisory(prob.F)
    margins = {",".join(map(str, a)): repr(v) for a, v in cert.pd_margins.items()}
    payload = {
        "degree": cert.degree,
        "mode": "exact",
        "pd_margins": margins,
        "fmin_estimate": repr(adv.fmin_estimate) if adv.fmin_estimate is not None else None,
        "advisory_degree": adv.degree,
        "out": args.out,
    }
    human = [f"positive-definite expansion at degree t = {cert.degree} (exact test)"]
    if adv.degree is not None:
        human.append(f"advisory degree bound: {adv.degree}")
    else:
        payload["advisory_note"] = adv.note
        human.append(f"advisory degree bound: not computed ({adv.note})")
    for alpha in sorted(cert.pd_margins):
        human.append(f"  alpha={alpha}: margin {cert.pd_margins[alpha]!r}")
    _emit(args, payload, "\n".join(human))
    return 0


def _cmd_scalarize(args) -> int:
    # each polynomial is rendered once, and only the output that is printed
    # is built
    prob = load_problem(args.problem)
    if args.charpoly:
        entries = [(entry.poly.to_text(), entry.witnesses is not None)
                   for entry in charpoly_scalarization(prob.G)]
        if args.json:
            payload = {"count": len(entries), "polynomials": [
                {"poly": poly, "has_witness": has} for poly, has in entries]}
            _emit(args, payload, "")
        else:
            _emit(args, {}, "\n".join(
                f"g{idx}: {poly}" + ("" if has else "   [no module witness]")
                for idx, (poly, has) in enumerate(entries, 1)))
        return 0
    system = scalarize(prob.G)
    entries = [(d.to_text(), [v[r, 0].to_text() for r in range(v.rows)])
               for d, v in system.entries]
    if args.json:
        payload = {"count": len(system), "entries": [
            {"poly": poly, "witness": witness} for poly, witness in entries]}
        _emit(args, payload, "")
        return 0
    human = [f"{len(system)} scalar inequalities (theta({prob.m}))"]
    for idx, (poly, witness) in enumerate(entries, 1):
        human.append(f"{idx}. {poly}")
        human.append("   witness: [" + "; ".join(witness) + "]")
    _emit(args, {}, "\n".join(human))
    return 0


def _cmd_certify_simplex(args) -> int:
    prob = load_problem(args.problem)
    if args.ball_witness:
        with open(args.ball_witness, "r", encoding="utf-8") as fh:
            witness = deserialize(fh.read())
    else:
        if prob.G != ball_constraint(prob.n):
            print(
                "error: without --ball-witness G must be [1 - ||x||^2]; "
                "supply --ball-witness for this G",
                file=sys.stderr,
            )
            return 2
        witness = trivial_ball_witness(prob.n)
    try:
        cert = assemble_simplex_putinar(prob.F, prob.G, witness, args.max_degree)
    except NotPositiveDefiniteOnSimplex as exc:
        _emit(args, {"error": str(exc)}, f"FAIL: {exc}")
        return 1
    text = serialize(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    context = _bound_context(prob)
    payload = {"degree": cert.k, "sos_blocks": len(cert.sos_blocks),
               "multipliers": len(cert.multipliers), "out": args.out,
               "ball_witness_degree": witness.k,
               "bound_formula_context": context}
    human = (
        f"certificate assembled: degree {cert.k}, {len(cert.sos_blocks)} SOS block(s), "
        f"{len(cert.multipliers)} multiplier term(s)"
        + f"\nball witness degree: {witness.k}"
        + (f"\nwritten to {args.out}" if args.out else "")
        + f"\nworst-case formula value for context: {context}"
    )
    _emit(args, payload, human)
    return 0


def _bound_context(prob) -> str:
    """Worst-case degree formula evaluated with default Lojasiewicz data, for
    comparison against the achieved certificate degree."""
    return _bound_line(prob.n, max(prob.m, 2), max(prob.F.degree, 1), max(prob.G.degree, 1))


# the bound line of the last SHAPE_TABLE_SIZE (n, m, d, d_G) shapes is kept
@functools.lru_cache(maxsize=SHAPE_TABLE_SIZE)
def _bound_line(n: int, m: int, d: int, d_G: int) -> str:
    eta = bounds_mod.eta_estimate(n, m, d_G, "matrix")
    report = bounds_mod.putinar_matrix_bound(BoundInputs(n=n, m=m, d=d, d_G=d_G, eta=min(eta, 6)))
    return f"{report.value} (eta estimate {eta} capped at 6 for display; C = kappa = ratio = 1)"


def _cmd_homogenize(args) -> int:
    prob = load_problem(args.problem)
    lifted = lift_problem(prob.F, prob.G)
    try:
        est = estimate_homogenized_min(lifted, grid=args.grid, refine_iters=args.refine)
    except EmptyFeasibleSample as exc:
        _emit(args, {"error": str(exc)}, f"FAIL: {exc}")
        return 1
    # each entry of the upper triangles rendered once: a symmetric matrix has
    # the same text at (i, j) and (j, i)
    F_text, G_text = ({(i, j): M[i, j].to_text() for i in range(M.size) for j in range(i, M.size)}
                      for M in (lifted.F_tilde, lifted.G_hat))
    if args.json:
        def full(upper, size):
            return [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]
        payload = {
            "d0": lifted.d0,
            "F_tilde": full(F_text, lifted.F_tilde.size),
            "G_hat": full(G_text, lifted.G_hat.size),
            "F_tilde_min": repr(est.value),
            "argmin": [repr(c) for c in est.argmin],
            "feasible_samples": est.feasible,
        }
        _emit(args, payload, "")
        return 0
    human = ["homogenized problem (x0 is the first variable):"]
    human.append(f"d0 = {lifted.d0}")
    for name, upper in (("F~", F_text), ("G^", G_text)):
        human.extend(f"{name}[{i}][{j}] = {text}" for (i, j), text in upper.items())
    human.append(f"F~_min estimate: {est.value!r}")
    human.append("argmin: (" + ", ".join(repr(c) for c in est.argmin) + ")")
    _emit(args, {}, "\n".join(human))
    return 0


def _cmd_relax(args) -> int:
    prob = load_problem(args.problem)
    if prob.ell != 1:
        print("error: relax expects a scalar objective (ell = 1)", file=sys.stderr)
        return 2
    # refused before anything is built, so a refused run writes no file
    check_solvable(relaxation_size(prob.F[0, 0], prob.G, args.order)[1], args.tol, args.max_iter)
    p = build_relaxation(prob.F[0, 0], prob.G, args.order)
    if args.export_sdpa:
        with open(args.export_sdpa, "w", encoding="utf-8") as fh:
            fh.write(export_sdpa(p))
    try:
        result = solve_sdp(p, tol=args.tol, max_iter=args.max_iter)
    except (SolverError, MaxIterationsError) as exc:
        _emit(args, {"error": str(exc)}, f"FAIL: {exc}")
        return 1
    if isinstance(result, Infeasible):
        _emit(
            args,
            {"status": "infeasible", "gap": repr(result.residual)},
            f"infeasible: no gamma admits a representation (gap ~ {result.residual!r})",
        )
        return 1
    payload = {
        "status": "ok",
        "order": args.order,
        "gamma": repr(result.gamma),
        "iterations": result.iterations,
        "residual": repr(result.affine_residual),
    }
    human = f"f_{args.order} = {result.gamma!r}   ({result.iterations} iterations)"
    if args.emit_certificate:
        cert = extract_certificate(result, p)
        with open(args.emit_certificate, "w", encoding="utf-8") as fh:
            fh.write(serialize(cert))
        payload["certificate"] = args.emit_certificate
        human += f"\ncertificate written to {args.emit_certificate}"
    _emit(args, payload, human)
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert = deserialize(fh.read())
    prob = load_problem(args.problem)
    target = prob.F
    gamma = parse_ext_rational(args.gamma)
    if not gamma.is_zero():
        shift = PolyMatrix.identity(prob.ell, prob.n).scale(gamma)
        target = SymPolyMatrix((target - shift).entries)
    report = verify_certificate(target, prob.G, cert, mode=args.mode, tol=args.tol)
    payload = {
        "ok": report.ok,
        "residual_norm": repr(report.residual_norm),
        "gram_margins": [repr(m) for m in report.gram_margins],
        "messages": report.messages,
    }
    human = "PASS" if report.ok else "FAIL: " + "; ".join(report.messages)
    if cert.sphere_multiplier is not None:
        payload["sphere"] = True
        human += "\nthe identity includes the sphere term H (||x||^2 - 1)"
    human += f"\nresidual norm: {report.residual_norm!r}"
    _emit(args, payload, human)
    return 0 if report.ok else 1


def _cmd_export_sdpa(args) -> int:
    prob = load_problem(args.problem)
    if prob.ell != 1:
        print("error: export-sdpa expects a scalar objective (ell = 1)", file=sys.stderr)
        return 2
    p = build_relaxation(prob.F[0, 0], prob.G, args.order)
    text = export_sdpa(p)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"written to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmicert",
        description="positivity certificates for polynomial matrix inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate a degree-bound formula")
    b.add_argument("--formula", required=True,
                   choices=["putinar-matrix", "putinar-scalar", "licq", "pv",
                            "perturbation", "rate", "eta", "theta"])
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--m", type=int, default=2)
    b.add_argument("--d", type=int, default=1)
    b.add_argument("--d-G", dest="d_G", type=int, default=1)
    b.add_argument("--ratio", default="1")
    b.add_argument("--kappa", default="1")
    b.add_argument("--eta", dest="eta_int", type=int, default=1)
    b.add_argument("--C", default="1")
    b.add_argument("--eps", default="1")
    b.add_argument("--order", type=int, default=1)
    b.add_argument("--f-norm", dest="f_norm", type=float, default=1.0)
    b.add_argument("--setting", default="matrix",
                   choices=["scalar", "matrix", "homogenized"])
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bound)

    p = sub.add_parser("polya", help="positive-definite Bernstein expansion")
    p.add_argument("problem")
    p.add_argument("--max-degree", type=int, default=20)
    p.add_argument("--out", help="write the certificate (expansion + margins) here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_polya)

    s = sub.add_parser("scalarize", help="equivalent scalar inequalities with witnesses")
    s.add_argument("problem")
    s.add_argument("--charpoly", action="store_true",
                   help="characteristic-polynomial description instead")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_scalarize)

    c = sub.add_parser("certify-simplex", help="constructive membership certificate")
    c.add_argument("problem")
    c.add_argument("--max-degree", type=int, default=12)
    c.add_argument("--ball-witness", help="certificate file for 1-||x||^2 in QM[G]")
    c.add_argument("--out", help="write the certificate here")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_certify_simplex)

    h = sub.add_parser("homogenize", help="lift to the sphere and estimate the minimum")
    h.add_argument("problem")
    h.add_argument("--grid", type=int, default=64)
    h.add_argument("--refine", type=int, default=50)
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=_cmd_homogenize)

    r = sub.add_parser("relax", help="SOS relaxation value f_k")
    r.add_argument("problem")
    r.add_argument("--order", type=int, required=True)
    r.add_argument("--tol", type=float, default=1e-6)
    r.add_argument("--max-iter", type=int, default=60000)
    r.add_argument("--export-sdpa", help="also write the SDPA file here")
    r.add_argument("--emit-certificate", help="write the numeric certificate here")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=_cmd_relax)

    v = sub.add_parser("verify", help="check a certificate against a problem")
    v.add_argument("certificate")
    v.add_argument("problem")
    v.add_argument("--mode", choices=["exact", "numeric"], default="exact")
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--gamma", default="0/1",
                   help="verify against F - gamma*I (exact coefficient string)")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("export-sdpa", help="write the relaxation in SDPA sparse form")
    e.add_argument("problem")
    e.add_argument("--order", type=int, required=True)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_export_sdpa)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args leaves it unchanged, and building
    it costs about as much as a small verify job."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # the parsers' errors are ValueErrors; an input past the float range
    # (a rate's --C or --eta, say) raises OverflowError
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
