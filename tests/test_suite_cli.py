import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weddle.cli import main
from weddle.suite import (CHECKS, ConfigError, RunConfig, child_rng, report_to_json,
                          run_suite)


def test_every_criterion_has_exactly_one_record_id():
    ids = []
    ctx_ids = set()
    for suite, fn in CHECKS:
        assert suite in ("sympchar", "heis", "burk", "theta", "curve", "cross")
        name = fn.__name__
        assert name.startswith("check_")
        ctx_ids.add(name)
    assert len(CHECKS) == 13
    assert len(ctx_ids) == 13


def test_empty_selector_gives_empty_report():
    report = run_suite(RunConfig(suites=()))
    assert report["records"] == []
    assert report["failures"] == 0


def test_unknown_suite_is_config_error():
    with pytest.raises(ConfigError):
        run_suite(RunConfig(suites=("nope",)))


def test_cli_unknown_suite_exits_2(capsys):
    assert main(["run", "--suite", "nope"]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown suites ['nope']")


def test_determinism_under_fixed_seed():
    r1 = run_suite(RunConfig(suites=("sympchar",), seed=7))
    r2 = run_suite(RunConfig(suites=("sympchar",), seed=7))
    assert report_to_json(r1) == report_to_json(r2)
    assert [rec["id"] for rec in r1["records"]] == ["AC01", "AC02", "AC03"]
    assert all(rec["runtime_ms"] is None for rec in r1["records"])


@pytest.mark.parametrize("seed", [0, 1, 50, 106, 2**31 - 1])
def test_child_seeds_are_sha256_of_seed_and_id(seed):
    # the built-in SHA-256 that child_rng takes must draw what hashlib's did
    import hashlib
    import random
    keys = ["AC%02d" % k for k in range(1, 14)] + ["AC13:0", "AC13:11",
                                                   "B-exact", "sq", "wt", "wc"]
    for key in keys:
        h = hashlib.sha256(("%d:%s" % (seed, key)).encode()).digest()
        want = random.Random(int.from_bytes(h[:8], "big"))
        got = child_rng(RunConfig(seed=seed), key)
        assert [got.getrandbits(64) for _ in range(4)] == \
               [want.getrandbits(64) for _ in range(4)], key


FOOTPRINT = """\
import io, json, sys
from contextlib import redirect_stdout
import weddle
loaded = sorted(m for m in sys.modules if m.startswith("weddle.") or m == "numpy")
import weddle.cli
with redirect_stdout(io.StringIO()):
    code = weddle.cli.main(sys.argv[1:])
print(json.dumps({"import": loaded, "code": code, "_hashlib": "_hashlib" in sys.modules,
                  "run": sorted(m for m in sys.modules if m.startswith("weddle"))}))
"""
COMMAND_MODULES = {"weddle", "weddle.cli", "weddle.fields", "weddle.poly",
                   "weddle.linalg", "weddle.suite"}


@pytest.mark.parametrize("args, modules", [
    (["--suite", "curve", "--p", "1000003"], {"weddle.curves"}),
    (["--suite", "sympchar", "--suite", "heis"],
     {"weddle.symplectic", "weddle.heisenberg"}),
    (["--suite", "burk"], {"weddle.symplectic", "weddle.heisenberg", "weddle.burkhardt"}),
])
def test_a_run_loads_only_its_suites_modules(args, modules):
    # a fresh interpreter: `import weddle` loads no submodule and no numpy, a
    # run adds only the modules of its suites, and no seed loads OpenSSL
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, "run"] + args, env=env,
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    got = json.loads(proc.stdout)
    assert got == {"import": [], "code": 0, "_hashlib": False,
                   "run": sorted(COMMAND_MODULES | modules)}


def run_cli(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_cli_group_order():
    code, out = run_cli(["group-order", "--g", "2", "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 51840 and data["index_formula"] == 51840


def test_cli_steinerian():
    code, out = run_cli(["steinerian", "--point", "1,1,1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["base_point"] is False
    kernel = [int(x) for x in data["kernel"]]
    scale = kernel[2]
    assert kernel == [c * scale for c in (6, -3, 1, 1, 1)]
    # a point of P^3 needs four coordinates
    assert main(["steinerian", "--point", "1,1,1"]) == 2


def test_cli_classify(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out = run_cli(["classify", "--matrix", str(mat)])
    assert code == 0
    assert "Gamma2(3)-" in json.loads(out)["labels"]


def test_cli_orbits():
    code, out = run_cli(["orbits"])
    assert code == 0
    assert json.loads(out)["measured"]["orbit_sizes"] == [6, 10]


def test_cli_fibers_and_base_locus():
    code, out = run_cli(["fibers", "--p", "7"])
    assert code == 0
    assert json.loads(out)["base_points"] == 40
    code, out = run_cli(["base-locus", "--p", "7", "--k", "2"])
    assert code == 0
    assert json.loads(out)["base_points"] == 40


def test_cli_base_locus_memory_follows_the_block():
    # P^3(F_127) has 2,064,640 points, about 490 MB when held at once; in
    # blocks the whole process peaks near 35 MB.  A child's ru_maxrss starts
    # from the RSS of the process that forked it, so a small interpreter
    # starts the command and reads its peak (KiB) from os.wait4
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    probe = ("import os, subprocess, sys\n"
             "proc = subprocess.Popen(sys.argv[1:])\n"
             "_, status, usage = os.wait4(proc.pid, 0)\n"
             "proc.returncode = os.waitstatus_to_exitcode(status)\n"
             "print(proc.returncode, usage.ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", probe, sys.executable, "-m", "weddle",
                           "base-locus", "--p", "127"],
                          env=env, cwd=root, capture_output=True, text=True, timeout=60)
    report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    code, maxrss = map(int, last.split())
    assert (proc.returncode, code, proc.stderr) == (0, 0, "")
    assert json.loads(report)["base_points"] == 40
    assert maxrss < 100 * 1024


def test_cli_theta_null(tmp_path):
    om = tmp_path / "omega.txt"
    om.write_text("1.0 1.0 0.3 0.1 0.3 0.1 1.5 1.2\n")
    code, out = run_cli(["theta-null", "--omega", str(om),
                         "--char", "1", "0", "1", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["parity"] == -1
    assert len(data["coords"]) == 4


def test_cli_theta_null_fails_off_the_eigenspace(tmp_path, capsys):
    # on this nearly real period matrix the theta-null leaves the eigenspace
    # by about 8e-6: a check failure with its report, not a traceback
    om = tmp_path / "omega.txt"
    om.write_text("0 0.01 0 0 0 0 0 0.01\n")
    assert main(["theta-null", "--omega", str(om), "--char", "1", "0", "1", "0"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["membership_residual"] > 1e-8 and err == ""


def test_cli_bad_inputs_are_config_errors(tmp_path, capsys):
    om = tmp_path / "omega.txt"
    om.write_text("1.0 1.0 0.3\n")
    for args in (["theta-null", "--omega", str(om), "--char", "1", "0", "1", "0"],
                 ["run", "--suite", "theta", "--omega", str(om)],
                 ["derive-burkhardt", "--field", "Z"]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_run_config_error():
    code = main(["run", "--suite", "bogus"])
    assert code == 2


def test_cli_resource_cap_exits_2(monkeypatch, capsys, tmp_path):
    import weddle.symplectic

    def no_closure(*args):
        raise AssertionError("the group closure must not start")

    monkeypatch.setattr(weddle.symplectic, "standard_transvections", no_closure)
    # a nearly real period matrix needs a theta truncation grid beyond the cap
    om = tmp_path / "omega.txt"
    om.write_text("0 0.00005 0 0 0 0 0 0.00005\n")
    for args in (["fibers", "--p", "199"], ["group-order", "--g", "3", "--n", "3"],
                 ["run", "--suite", "theta", "--omega", str(om)],
                 ["theta-null", "--omega", str(om), "--char", "1", "0", "1", "0"]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("resource cap:") and err.count("\n") == 1


def test_cli_cross_suite_above_the_cap_exits_2(capsys):
    # AC13 would enumerate P^3(F_1000003), about 10^18 points
    assert main(["run", "--suite", "cross", "--p", "1000003"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource cap:") and err.count("\n") == 1


def test_cli_refuses_prime_beyond_int64(capsys):
    # 3037000507 is the smallest prime with p^2 >= 2^63; the larger moduli
    # must be refused at once, without a primality test in O(sqrt(p)) time,
    # the last beyond the range of the deterministic test
    big, huge = "10000000000000061", "1000000000000000000000000000057"
    for args in (["weddle-curve", "--p", "3037000507"], ["weddle-curve", "--p", big],
                 ["run", "--suite", "curve", "--p", big],
                 ["run", "--suite", "burk", "--p", big],
                 ["derive-burkhardt", "--field", "Fp:" + big],
                 ["run", "--suite", "curve", "--p", huge]):
        start = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_group_order_beyond_its_cost_bound_exits_2(capsys):
    # a negative genus (the closure's order check failed), a level above
    # 10^12 (trial division), an order of 4000 digits or more: each refused
    # at once with one line
    for g, n in (("-1", "2"), ("2000", "5"), ("60", "5"),
                 ("2", "1000000000039")):
        start = time.perf_counter()
        assert main(["group-order", "--g", g, "--n", n]) == 2
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and err.count("\n") == 1
    # a prime level is factored up to its square root, not up to itself
    p = 1000000007
    start = time.perf_counter()
    assert main(["group-order", "--g", "2", "--n", str(p)]) == 0
    assert time.perf_counter() - start < 2
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == report["index_formula"] == p ** 4 * (p ** 2 - 1) * (p ** 4 - 1)


def test_cli_base_locus_refuses_a_modulus_that_is_not_prime(capsys):
    # over F_{p^2} too: Z/4[s]/(s^2 - 3) is not F_16, and 1 and -2 have no
    # quadratic nonresidue
    for p, k in (("4", "2"), ("1", "2"), ("-2", "2"), ("4", "1"), ("1", "1")):
        start = time.perf_counter()
        assert main(["base-locus", "--p", p, "--k", k]) == 2
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == "" and err == "config error: modulus %s is not prime\n" % p


def test_theta_run_survives_overflowing_newton_step(tmp_path):
    # at this seed a Newton step of the theta divisor search overflows to NaN
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "theta", "--seed", "106", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["failures"] == 0


def test_cli_run_subset(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--suite", "sympchar", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failures"] == 0
    assert [r["id"] for r in data["records"]] == ["AC01", "AC02", "AC03"]
    assert all(r["status"] == "pass" for r in data["records"])


def test_ac04_schur_failure_ends_in_a_record(monkeypatch, tmp_path):
    # a Schur solve that finds a 2-dimensional space of intertwiners is a
    # failed AC04, reported in its record, not a traceback
    import weddle.heisenberg
    monkeypatch.setattr(weddle.heisenberg, "_intertwiner_solve", lambda phi: (None, 2))
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "heis", "--out", str(out)]) == 1
    [rec] = json.loads(out.read_text())["records"]
    assert rec["id"] == "AC04" and rec["status"] == "fail"
    assert rec["measured"]["schur_dimension_one"] is False
    assert rec["measured"]["projective_20_pairs"] is False


def test_ac04_broken_table_names_the_first_counterexample(monkeypatch):
    # one row of U(h) off by the scalar w: t + x*.a + 1
    import weddle.heisenberg as H
    from weddle.suite import Context, check_heisenberg, child_rng
    perm, expo = H.schrodinger_table()
    broken = expo.copy()
    broken[100] = (broken[100] + 1) % 3
    monkeypatch.setattr(H, "schrodinger_table", lambda: (perm, broken))
    cfg = RunConfig(seed=0)
    try:
        rec = check_heisenberg(Context(cfg))
        # the per-element loop over the same draws, reading the same table
        rng = child_rng(cfg, "AC04")
        G = H.enumerate_group(2)
        first = None
        for _ in range(500):
            h1, h2 = rng.choice(G), rng.choice(G)
            lhs = H.schrodinger(H.h_mul(h1, h2))
            rhs = H.compose_rows(H.schrodinger(h1), H.schrodinger(h2))
            if [x.tolist() for x in lhs] != [x.tolist() for x in rhs]:
                first = "multiplicativity: %r * %r" % (h1, h2)
                break
    finally:
        # the solves made from the broken table must not outlive it
        H._intertwiner_solve.cache_clear()
    assert first is not None
    assert rec.status == "fail" and rec.measured["multiplicative_500"] is False
    assert rec.measured["counterexamples"][0] == first


def test_cross_suite_runs_standalone():
    # cross-suite checks need theta- and curve-side artifacts; they are
    # built on demand without the other suites having run
    report = run_suite(RunConfig(suites=("cross",), seed=1))
    assert [r["id"] for r in report["records"]] == ["AC12", "AC13"]
    assert report["failures"] == 0


def test_report_floats_have_fixed_precision():
    report = run_suite(RunConfig(suites=("sympchar",)))
    text = report_to_json(report)
    assert "e-" in report["config"]["tol"] or "e+" in report["config"]["tol"]
    json.loads(text)


@pytest.mark.parametrize("verb", [["run", "--suite", "curve"], ["weddle-curve"],
                                  ["kummer"], ["sec-octic"]])
def test_cli_field_without_affine_curve_points_exits_2(verb):
    # over F_7 the sextic with roots 0..5 is 0 at x = 0..5 and a non-residue
    # at x = 6; a subprocess with a timeout, so that a hang fails the test
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "weddle"] + verb + ["--p", "7"],
                          env=env, cwd=root, capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: F_7 has no affine curve point")
    assert proc.stderr.count("\n") == 1


def test_cli_degenerate_web_exits_2(monkeypatch, capsys):
    import weddle.theta
    from weddle.curves import web_of_quadrics

    def collinear_web(nodes, domain):
        # quadrics through six points of a line form a space of dimension 7
        return web_of_quadrics([[1, t, 0, 0] for t in range(6)], domain)

    monkeypatch.setattr(weddle.theta, "web_of_quadrics", collinear_web)
    assert main(["weddle-theta"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: quadrics through the nodes have dimension 7")
    assert err.count("\n") == 1


@pytest.mark.parametrize("suite, p", [pytest.param("curve", p, id=str(p))
                                      for p in (11, 13, 17, 23, 37)]
                         + [pytest.param("burk", p, id="burk-%d" % p)
                            for p in (2, 3, 5, 7)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curve_run_at_small_primes_ends_in_a_record(suite, p, seed, tmp_path, capsys):
    # over these fields the curve has so few points, and the Steinerian
    # image so few, that some fit is not unique; the run reports the
    # nullity it found in a fail record (or refuses the prime in one line),
    # never with a traceback
    out = tmp_path / "report.json"
    code = main(["run", "--suite", suite, "--p", str(p), "--seed", str(seed),
                 "--out", str(out)])
    if code == 2:
        assert capsys.readouterr().err.count("\n") == 1
        return
    assert code == 1
    records = {r["id"]: r for r in json.loads(out.read_text())["records"]}
    if suite == "burk":
        rec = records["AC06"]
        assert rec["status"] == "fail" and rec["measured"]["nullity_mod_p"] > 1
        return
    rec = records["AC11"]
    assert rec["status"] == "fail"
    m = rec["measured"]
    nullities = (m["weddle_nullity"], m["kummer_nullity"], m["octic_nullity"],
                 m["quadrics_dimension"] - 3)
    assert all(n >= 1 for n in nullities) and any(n > 1 for n in nullities)


@pytest.mark.parametrize("verb", ["weddle-curve", "kummer", "sec-octic"])
def test_curve_verbs_report_a_fit_that_is_not_unique(verb, capsys):
    # at p = 11 each fit finds a space of forms, reported with exit 1
    assert main([verb, "--p", "11"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["fit_nullity"] > 1
    assert data.get("quartic", None) is None


def test_derive_burkhardt_reports_a_fit_that_is_not_unique(capsys):
    # over F_7 the Steinerian image pins no unique quartic: one line with
    # the nullity, exit 1, and no quartic printed
    assert main(["derive-burkhardt", "--field", "Fp:7"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("no unique quartic: interpolation nullity ")
    assert int(got.err.split()[-1]) > 1 and got.err.count("\n") == 1


def test_theta_run_without_a_unique_quartic_ends_in_records(monkeypatch, tmp_path):
    # a theta-side fit that finds a 2-dimensional space of quartics fails
    # AC10 and AC12 in their records, not with a traceback
    import weddle.theta
    monkeypatch.setattr(weddle.theta, "_unique_quartic",
                        lambda draw, samples, domain: (2, None))
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "theta", "--suite", "cross", "--out", str(out)]) == 1
    records = {r["id"]: r for r in json.loads(out.read_text())["records"]}
    ac10, ac12 = records["AC10"], records["AC12"]
    assert ac10["status"] == "fail" and ac12["status"] == "fail"
    assert ac10["measured"]["fit_nullity"] == 2
    assert ac10["measured"]["line_residual"] == "nan"
    assert ac12["measured"]["theta_match_distance"] is None


def test_uncertified_quartic_fails_ac06_and_ac07(monkeypatch, tmp_path):
    # a reconstructed quartic that fails symbolic re-substitution is a
    # failed AC06 and AC07, reported in their records, not a traceback
    import weddle.burkhardt
    monkeypatch.setattr(weddle.burkhardt, "burkhardt_vanishes_symbolically",
                        lambda B: False)
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "burk", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    records = {r["id"]: r for r in report["records"]}
    assert report["failures"] == 2
    assert records["AC05"]["status"] == "pass"
    assert records["AC08"]["status"] == "soft"
    assert records["AC06"]["status"] == "fail"
    assert records["AC06"]["measured"]["symbolically_certified"] is False
    assert records["AC07"]["status"] == "fail"
    assert "certification" in records["AC07"]["measured"]["error"]


def test_derive_burkhardt_over_q_reports_a_failed_certification(monkeypatch, capsys):
    import weddle.burkhardt
    monkeypatch.setattr(weddle.burkhardt, "burkhardt_vanishes_symbolically",
                        lambda B: False)
    assert main(["derive-burkhardt", "--field", "Q"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "reconstructed quartic fails symbolic certification\n"



def test_ac09_gates_on_the_level3_contract(monkeypatch, tmp_path):
    # a contract residual above 1e-8 fails AC09 in its record, not with a
    # traceback
    import weddle.theta
    monkeypatch.setattr(weddle.theta, "level3_contract_check",
                        lambda omega, rng: weddle.theta.ContractReport(1e-6, 0.0, 0.0))
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "theta", "--out", str(out)]) == 1
    records = {r["id"]: r for r in json.loads(out.read_text())["records"]}
    assert records["AC09"]["status"] == "fail"
    assert float(records["AC09"]["measured"]["contract_residual"]) == 1e-6
    assert records["AC10"]["status"] == "pass"
