"""Benchmark of verified weddle runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one ``weddle run ...``
command in a fresh interpreter (see ``child.py``), because the group
closure, the stabilizers and the quartic-threefold matrices are
``lru_cache``d at module level and a CLI user pays them cold on every
call.  One client keeps one operation in flight (a closed loop) and starts
the next only if it is expected to finish inside the ``--seconds`` window,
so a run lasts about ``max(S, one operation)``.  Every report is checked
against ``reference/<workload>.json``.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics (medians over the run's operations).  With
``--trace 1`` each step runs one operation untraced and the same
operation traced, and the last line carries the per-layer metrics.
Everything the run writes goes under ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# BLAS threads given to every operation.  Default OpenBLAS threading made
# single theta/SVD checks spike several-fold in about a third of runs on a
# 2-core machine; one thread keeps runs steady and never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# AC13 (suite `cross`, also part of `all`) enumerates all p^3 points of
# P^3(F_p); above this prime a workload may not include it.
ENUM_MAX_P = 101

# The suites `theta` and `cross`, and `curve` at p = 101, fail for some
# operation seeds at this commit (see README.md, "Known failures"), so no
# workload runs them; `curve` runs at a prime where its failure is ~1e-5.
WORKLOADS = {
    "sympchar_heis": {"suites": ("sympchar", "heis"), "p": 101},
    "burk_p101": {"suites": ("burk",), "p": 101},
    "curve_p1e6": {"suites": ("curve",), "p": 1000003},
}

SETUP_PROBES = 8          # import-only spawns before and again after the loop
OP_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    "symplectic.sp_group_elements.s", "symplectic.sp_group_elements.calls",
    "symplectic.sp_group_elements.misses", "symplectic.stabilizer.s",
    "symplectic.stabilizer.misses", "symplectic.SymplecticMat.calls",
    "linalg.rref_mod_p.s", "linalg.rref_mod_p.calls", "linalg.rref_mod_p.entries",
    "linalg.eval_poly_mod_p.s", "linalg.eval_poly_mod_p.calls",
    "linalg.eval_poly_mod_p.point_evals", "linalg.proj_points_mod_p.s",
    "linalg.fit_hypersurface.gf.s", "linalg.fit_hypersurface.gf.calls",
    "linalg.nullspace.s", "linalg.rank.s", "linalg.adjugate.s",
    "curves.weddle_prime_fit.fits",
    "fields.Fp.ops", "fields.Cyc.ops",
    "poly.SparsePoly.evaluate.s", "poly.SparsePoly.evaluate.calls",
    "poly.SparsePoly.substitute_linear.s", "poly.SparsePoly.substitute_linear.calls",
    "heisenberg.intertwiner.s", "heisenberg.intertwiner.calls",
    "heisenberg.lift_symplectic.s", "heisenberg.lift_symplectic.calls",
    "burkhardt.derive_burkhardt_exact.s", "burkhardt.derive_burkhardt.s",
    "burkhardt.hessian_match.s", "burkhardt.count_fibers_ff.s",
    "burkhardt.count_base_locus_ff.s", "burkhardt.matrix_plus.misses",
    "burkhardt.matrix_minus.misses", "burkhardt.steinerian_quartics.misses",
    "curves.weddle_prime_fit.s", "curves.kummer_fit.s", "curves.sec_octic.s",
    "curves.quadrics_through_curve.s",
) + tuple("suite.AC%02d.s" % i for i in (1, 2, 3, 4, 5, 6, 7, 8, 11)) + tuple(
    "%s.self_s" % m for m in ("fields", "poly", "linalg", "symplectic", "heisenberg",
                              "burkhardt", "curves", "suite", "cli")
) + ("trace.coverage", "trace.overhead_s", "trace.wall_s")

# Measured fields that legitimately change with the operation's seed; all
# other non-float fields must equal the reference report.
SEED_VARYING = {("AC13", "sampling_attempts")}

# A float field as the report writes it ("%.12e", complex as "re,im").
_FLOAT = r"(-?\d\.\d{12}e[+-]\d{2,3}|-?nan|-?inf)"
FLOAT_RE = re.compile(r"^%s(,%s)?$" % (_FLOAT, _FLOAT))


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# inputs


def cli_args(workload: str, op_seed: int, out: Path) -> list[str]:
    w = WORKLOADS[workload]
    args = ["run"]
    for s in w["suites"]:
        args += ["--suite", s]
    return args + ["--p", str(w["p"]), "--seed", str(op_seed), "--out", str(out)]


def check_inputs() -> None:
    for name, w in WORKLOADS.items():
        if w["p"] > ENUM_MAX_P and {"cross", "all"} & set(w["suites"]):
            raise BenchError("workload %s would enumerate P^3(F_%d)" % (name, w["p"]))


def op_seed(workload: str, seed: int, i: int) -> int:
    h = hashlib.sha256(("%s:%d:%d" % (workload, seed, i)).encode()).digest()
    return int.from_bytes(h[:4], "big") >> 1


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WEDDLE_") and k not in BLAS_ENV
           and k not in ("PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")}
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    return env


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": BLAS_THREADS}


# ---------------------------------------------------------------------------
# one operation


def spawn(tmp: Path, tag: str, cli: list[str] | None, trace: bool = False) -> dict:
    """Run child.py once; return times, rusage and exit code."""
    meta = tmp / ("%s.meta.json" % tag)
    spans = tmp / ("%s.spans.npz" % tag)
    argv = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--meta", str(meta)]
    if trace:
        argv += ["--trace", str(spans)]
    argv += ["--probe"] if cli is None else ["--"] + cli
    with open(tmp / ("%s.err" % tag), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"t0": t0, "exit": proc.returncode, "cpu_s": ru.ru_utime + ru.ru_stime,
           "peak_rss_mb": ru.ru_maxrss / 1024.0, "spans": spans if trace else None}
    try:
        m = json.loads(meta.read_text())
        res["setup_s"] = m["ready"] - t0
    except (OSError, ValueError, KeyError):
        res["setup_s"] = None
    return res


def compare(ref, got, path: str, skip=frozenset()) -> list[str]:
    """Differences between two reports; float fields are checked for type only."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return ["%s: keys differ" % path]
        out = []
        for k in ref:
            if k not in skip:
                out += compare(ref[k], got[k], "%s.%s" % (path, k))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return ["%s: length differs" % path]
        return [d for i, (a, b) in enumerate(zip(ref, got))
                for d in compare(a, b, "%s[%d]" % (path, i))]
    if isinstance(ref, str) and FLOAT_RE.match(ref):
        ok = isinstance(got, str) and FLOAT_RE.match(got) and "nan" not in got
        return [] if ok else ["%s: %r is not a finite float" % (path, got)]
    return [] if ref == got else ["%s: %r != %r" % (path, got, ref)]


def verify(report: dict, ref: dict, seed: int) -> list[str]:
    errs = []
    if report.get("failures") != 0:
        errs.append("failures = %r" % report.get("failures"))
    cfg = dict(report.get("config", {}))
    if cfg.pop("seed", None) != seed:
        errs.append("config.seed is not %d" % seed)
    errs += compare({k: v for k, v in ref["config"].items() if k != "seed"}, cfg, "config")
    errs += compare(ref["schema"], report.get("schema"), "schema")
    recs, refs = report.get("records", []), ref["records"]
    if [r.get("id") for r in recs] != [r["id"] for r in refs]:
        return errs + ["record ids differ"]
    for r, e in zip(recs, refs):
        skip = {k for rid, k in SEED_VARYING if rid == e["id"]}
        errs += compare(e["status"], r.get("status"), e["id"] + ".status")
        errs += compare(e["claim"], r.get("claim"), e["id"] + ".claim")
        errs += compare(e["tolerances"], r.get("tolerances"), e["id"] + ".tolerances")
        errs += compare(e["measured"], r.get("measured"), e["id"] + ".measured", skip)
    return errs


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / ("%s.json" % workload)).read_text())


def operation(workload: str, seed: int, tmp: Path, tag: str, ref: dict,
              trace: bool = False) -> dict:
    out = tmp / ("%s.report.json" % tag)
    res = spawn(tmp, tag, cli_args(workload, seed, out), trace)
    errs = []
    if res["exit"] != 0:
        err = (tmp / ("%s.err" % tag)).read_text(errors="replace").strip()
        errs.append("exit code %d: %s" % (res["exit"], err.splitlines()[-1] if err else ""))
    try:
        errs += verify(json.loads(out.read_text()), ref, seed)
    except (OSError, ValueError) as exc:
        errs.append("no report: %s" % exc)
    res["wall_s"] = time.monotonic() - res["t0"]
    res["errors"] = errs
    res["seed"] = seed
    return res


# ---------------------------------------------------------------------------
# runs


def tail(values: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: Path):
    ref = load_reference(workload)
    ops, probes, pairs = [], [], []
    if not trace:
        spawn(tmp, "warm", None)   # compiles bytecode, warms the page cache
        probes += setup_probes(tmp, "pre")
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        s = op_seed(workload, seed, i)
        if trace:
            plain = operation(workload, s, tmp, "op%d" % i, ref)
            traced = operation(workload, s, tmp, "tr%d" % i, ref, trace=True)
            ops += [plain, traced]
            pairs.append((plain, traced))
            step = plain["wall_s"] + traced["wall_s"]
        else:
            ops.append(operation(workload, s, tmp, "op%d" % i, ref))
            step = statistics.median(o["wall_s"] for o in ops)
        r = ops[-1]
        print("op %d seed %d wall_s %.3f cpu_s %.3f setup_s %s peak_rss_mb %.1f %s"
              % (i, s, r["wall_s"], r["cpu_s"],
                 "%.3f" % r["setup_s"] if r["setup_s"] is not None else "-",
                 r["peak_rss_mb"], "ok" if not r["errors"] else "FAILED"), flush=True)
        for o in (ops[-2:] if trace else ops[-1:]):
            for e in o["errors"][:10]:
                print("  error (seed %d): %s" % (o["seed"], e), flush=True)
        i += 1
        if time.monotonic() + step > deadline:
            break
    if not trace:
        probes += setup_probes(tmp, "post")
    return ops, probes, pairs


def setup_probes(tmp: Path, tag: str) -> list[float]:
    out = []
    for k in range(SETUP_PROBES):
        p = spawn(tmp, "%s%d" % (tag, k), None)
        if p["exit"] != 0 or p["setup_s"] is None:
            raise BenchError("set-up probe failed: %s"
                             % (tmp / ("%s%d.err" % (tag, k))).read_text()[-2000:])
        out.append(p["setup_s"])
    return out


def end_to_end(ops: list[dict], probes: list[float]) -> dict:
    # failures are counted apart; a crashed operation did not do the work
    ops = [o for o in ops if not o["errors"]] or ops
    vals = {"wall_s": [o["wall_s"] for o in ops], "cpu_s": [o["cpu_s"] for o in ops],
            "setup_s": probes, "peak_rss_mb": [o["peak_rss_mb"] for o in ops]}
    for name, unit in END_TO_END:
        v = vals[name]
        t = tail(v)
        print("%-12s median %.4f %s  n=%d%s" % (
            name, statistics.median(v), unit, len(v),
            "  p%d %.4f %s" % (t[0], t[1], unit) if t else ""))
    return {name: {"value": statistics.median(vals[name]), "unit": unit}
            for name, unit in END_TO_END}


def unit_of(name: str) -> str:
    if name == "trace.coverage":
        return "fraction"
    return "s" if name.endswith(("_s", ".s")) else "count"


def per_layer(pairs: list, workload: str, seed: int) -> dict:
    from tracer import layer_metrics

    rows = []
    for plain, traced in pairs:
        if not traced["spans"].is_file():
            continue
        m = layer_metrics(str(traced["spans"]))
        m["trace.wall_s"] = traced["wall_s"]
        m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        m["trace.coverage"] = m["span_s"] / traced["wall_s"]
        rows.append(m)
    table = {k: statistics.median(r.get(k, 0) for r in rows)
             for k in sorted(set().union(*rows))}
    OUT.mkdir(exist_ok=True)
    (OUT / ("trace_%s_%d.json" % (workload, seed))).write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {name: {"value": table.get(name, 0), "unit": unit_of(name)}
            for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "weddle" / "__init__.py").is_file():
        sys.stderr.write("no weddle sources under %s\n" % SRC)
        return 2
    check_inputs()
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ops, probes, pairs = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), tmp)
        metrics = (per_layer(pairs, args.workload, args.seed) if args.trace
                   else end_to_end(ops, probes))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(1 for o in ops if o["errors"])
    print("failed_frac  %.4f  (%d of %d operations)" % (failed / len(ops), failed, len(ops)))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        sys.exit(2)
