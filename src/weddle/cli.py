"""Command line entry point.

Verbs cover the group-theoretic queries, the Heisenberg verification
block, the quartic-threefold constructions, the theta-side surfaces and
the curve-side surfaces, plus `run` for the full reproducible check suite.
Exit codes: 0 ok, 1 check failure, 2 configuration error or resource cap.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys

from .linalg import ResourceCapError


def _parse_matrix(path: str):
    with open(path) as fh:
        rows = [[int(tok) for tok in line.split()] for line in fh if line.strip()]
    return rows


def _parse_omega(path: str):
    with open(path) as fh:
        vals = [float(tok) for tok in fh.read().split()]
    if len(vals) != 8:
        raise ValueError("omega file needs 8 reals (row-major re im pairs)")
    return [[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
            [complex(vals[4], vals[5]), complex(vals[6], vals[7])]]


def _out(args, payload: dict) -> None:
    from .suite import report_to_json
    text = report_to_json(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_orbits(args):
    from .suite import Context, RunConfig, check_orbits
    rec = check_orbits(Context(RunConfig(seed=args.seed)))
    _out(args, {"record": rec.id, "status": rec.status, "measured": rec.measured})
    return 0 if rec.status != "fail" else 1


def cmd_group_order(args):
    from .symplectic import gamma_index, group_order
    order = group_order(args.g, args.n)
    _out(args, {"g": args.g, "n": args.n, "order": order,
                "index_formula": gamma_index(args.g, args.n)})
    return 0


def cmd_classify(args):
    from .symplectic import SymplecticMat, classify_gamma
    G = SymplecticMat(_parse_matrix(args.matrix))
    _out(args, {"labels": sorted(classify_gamma(G))})
    return 0


def cmd_heisenberg_verify(args):
    from .suite import Context, RunConfig, check_heisenberg
    rec = check_heisenberg(Context(RunConfig(seed=args.seed)))
    m = rec.measured
    _out(args, {"group_law": m["multiplicative_500"],
                "schur_dims": m["schur_dimension_one"],
                "block_split": m["blocks_preserved"],
                "projectivity": m["projective_20_pairs"],
                "counterexamples": m["counterexamples"],
                "detail": m, "status": rec.status})
    return 0 if rec.status != "fail" else 1


def cmd_derive_burkhardt(args):
    from .burkhardt import derive_burkhardt, derive_burkhardt_exact
    from .fields import GF
    from .poly import poly_to_text
    rng = random.Random(args.seed)
    if args.field == "Q":
        exact = derive_burkhardt_exact(rng)
        B = exact.quartic
        if not exact.certified:
            sys.stderr.write("reconstructed quartic fails symbolic certification\n")
            return 1
    elif args.field.startswith("Fp:"):
        d = derive_burkhardt(GF(int(args.field.split(":")[1])), rng)
        B = d.quartic
        if B is None:
            sys.stderr.write("no unique quartic: interpolation nullity %d\n" % d.nullity)
            return 1
    else:
        raise ValueError("field must be Q or Fp:<p>")
    sys.stdout.write(poly_to_text(B))
    return 0


def cmd_steinerian(args):
    from .burkhardt import steinerian_minus
    from .fields import QQ
    from fractions import Fraction
    z = [Fraction(tok) for tok in args.point.split(",")]
    r = steinerian_minus(z, QQ)
    if r is None:
        _out(args, {"point": [str(x) for x in z], "base_point": True})
    else:
        _out(args, {"point": [str(x) for x in z], "base_point": False,
                    "kernel": [str(x) for x in r]})
    return 0


def cmd_fibers(args):
    from .burkhardt import count_fibers_ff
    _out(args, count_fibers_ff(args.p))
    return 0


def cmd_base_locus(args):
    from .burkhardt import count_base_locus_ff
    _out(args, {"p": args.p, "k": args.k,
                "base_points": count_base_locus_ff(args.p, args.k)})
    return 0


def cmd_theta_null(args):
    from .symplectic import Characteristic
    from .theta import PeriodMatrix, theta_null
    om = PeriodMatrix(_parse_omega(args.omega))
    a1, a2, b1, b2 = args.char
    rep = theta_null(Characteristic(2, (a1, a2), (b1, b2)), om)
    _out(args, {"char": {"a": [a1, a2], "b": [b1, b2]},
                "parity": rep.char.parity,
                "coords": [[c.real, c.imag] for c in rep.eigen_coords],
                "membership_residual": rep.membership_residual,
                "det_plus_normalized": rep.det_plus_normalized})
    return 0 if rep.membership_residual <= 1e-8 else 1


def cmd_weddle_theta(args):
    from .symplectic import BASE_ODD
    from .theta import OMEGA_GENERIC, PeriodMatrix, weddle_from_theta
    om = PeriodMatrix(_parse_omega(args.omega)) if args.omega else OMEGA_GENERIC
    rep = weddle_from_theta(om, BASE_ODD, random.Random(args.seed))
    _out(args, {"fit_nullity": rep.fit_nullity,
                "fresh_residual": rep.fresh_residual,
                "node_gradient_residual": rep.node_gradient_residual,
                "line_residual": rep.line_residual,
                "lines_checked": rep.lines_checked,
                "net_dimension": rep.net_dimension,
                "rigidity_nullity": rep.rigidity_nullity,
                "rigidity_match": rep.rigidity_match})
    return 0


def _curve_from_args(args):
    from .curves import GenusTwoCurve
    from .fields import GF
    roots = [int(tok) for tok in args.f.split(",")]
    return GenusTwoCurve(GF(args.p), roots=roots)


def _form_text(form):
    """A fitted form as text, or None when the fit was not unique."""
    from .poly import poly_to_text
    return None if form is None else poly_to_text(form)


def cmd_weddle_curve(args):
    from .curves import weddle_prime_fit
    rep = weddle_prime_fit(_curve_from_args(args), random.Random(args.seed))
    _out(args, {"fit_nullity": rep.fit_nullity,
                "nodes_singular": rep.nodes_singular,
                "lines_ok": all(ok for ok, _ in rep.line_results),
                "rigidity_nullity": rep.rigidity_nullity,
                "rigidity_matches": rep.rigidity_matches,
                "quartic": _form_text(rep.quartic)})
    return 0 if rep.fit_nullity == 1 else 1


def cmd_kummer(args):
    from .curves import kummer_fit, quadrics_through_curve
    curve, rng = _curve_from_args(args), random.Random(args.seed)
    rep = kummer_fit(curve, quadrics_through_curve(curve, rng).forms, rng)
    _out(args, {"fit_nullity": rep.fit_nullity,
                "nodes": len(rep.nodes),
                "nodes_distinct": rep.nodes_distinct,
                "nodes_singular": rep.nodes_singular,
                "tangents_share_image": rep.origin_node_consistent,
                "quartic": _form_text(rep.quartic)})
    return 0 if rep.fit_nullity == 1 else 1


def cmd_sec_octic(args):
    from .curves import sec_octic
    rep = sec_octic(_curve_from_args(args), random.Random(args.seed))
    _out(args, {"fit_nullity": rep.fit_nullity,
                "restriction_is_weddle_square": rep.restriction_is_weddle_square,
                "fresh_ok": rep.fresh_residual_ok,
                "curve_singular": rep.curve_singular})
    return 0 if rep.fit_nullity == 1 else 1


def cmd_run(args):
    from .suite import RunConfig, run_suite
    cfg = RunConfig(suites=tuple(args.suite), seed=args.seed, p=args.p,
                    tol=args.tol,
                    omega=_parse_omega(args.omega) if args.omega else None,
                    f_roots=tuple(int(t) for t in args.f.split(",")),
                    timings=args.timings)
    report = run_suite(cfg)
    _out(args, report)
    return 0 if report["failures"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weddle",
                                 description="surfaces, theta functions and "
                                             "finite symplectic actions")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, out=True, seed=True):
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if out:
            sp.add_argument("--out", default=None)

    sp = sub.add_parser("orbits", help="characteristic orbits mod 2")
    common(sp)
    sp.set_defaults(fn=cmd_orbits)

    sp = sub.add_parser("group-order", help="order of Sp(2g, Z/n)")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_group_order)

    sp = sub.add_parser("classify", help="congruence labels of an integer matrix")
    sp.add_argument("--matrix", required=True,
                    help="file of whitespace separated integers, 4 rows")
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("heisenberg-verify", help="representation checks as JSON")
    common(sp)
    sp.set_defaults(fn=cmd_heisenberg_verify)

    sp = sub.add_parser("derive-burkhardt", help="interpolate the invariant quartic")
    sp.add_argument("--field", default="Q", help="Q or Fp:<p>")
    common(sp, out=False)
    sp.set_defaults(fn=cmd_derive_burkhardt)

    sp = sub.add_parser("steinerian", help="kernel coordinates at a point")
    sp.add_argument("--point", required=True, help="z1,z2,z3,z4 rationals")
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_steinerian)

    sp = sub.add_parser("fibers", help="fiber histogram over a prime field")
    sp.add_argument("--p", type=int, default=31)
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_fibers)

    sp = sub.add_parser("base-locus", help="base locus count over F_{p^k}")
    sp.add_argument("--p", type=int, default=7)
    sp.add_argument("--k", type=int, default=1)
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_base_locus)

    sp = sub.add_parser("theta-null", help="theta-null point of a characteristic")
    sp.add_argument("--omega", required=True, help="file of 8 reals")
    sp.add_argument("--char", type=int, nargs=4, required=True,
                    metavar=("A1", "A2", "B1", "B2"))
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_theta_null)

    sp = sub.add_parser("weddle-theta", help="six-node quartic from theta functions")
    sp.add_argument("--omega", default=None, help="file of 8 reals")
    sp.add_argument("--report", dest="out", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_weddle_theta)

    for name, fn in (("weddle-curve", cmd_weddle_curve), ("kummer", cmd_kummer),
                     ("sec-octic", cmd_sec_octic)):
        sp = sub.add_parser(name, help="%s over a prime field" % name)
        sp.add_argument("--f", default="0,1,2,3,4,5",
                        help="comma separated rational roots of the sextic")
        sp.add_argument("--p", type=int, default=101)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("run", help="run the check suite")
    sp.add_argument("--suite", action="append", default=None,
                    help="sympchar|heis|burk|theta|curve|cross|all (repeatable)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int, default=101)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--omega", default=None)
    sp.add_argument("--f", default="0,1,2,3,4,5")
    sp.add_argument("--out", default=None)
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(fn=cmd_run)
    return ap


def main(argv=None) -> int:
    # Everything alive now, mostly numpy's and linalg's import-time objects,
    # lives until exit: frozen, it is never walked again by a collection,
    # nor by the interpreter's teardown.  The modules a suite or verb runs
    # are imported later, inside it.  Collecting the two young generations
    # first keeps a caller's recent garbage out of the frozen generation; a
    # full collection would walk the whole import-time heap once more.
    gc.collect(1)
    gc.freeze()
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "cmd", None) == "run" and args.suite is None:
        args.suite = ["all"]
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    except ResourceCapError as exc:
        sys.stderr.write("resource cap: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
