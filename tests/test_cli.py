import ast
import gc
import json
import runpy
import shutil
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import randkrylov.cli as cli
import randkrylov.irn as irn
from randkrylov import SolveResult, TraceRow
from randkrylov.cli import (
    CSV_COLUMNS,
    ConfigError,
    build_problem,
    load_bundle,
    main,
    parse_config,
    read_trace,
    summarize_traces,
    trace_to_csv,
    write_bundle,
)
from randkrylov.operators import LinearOperator

TINY = """
# tiny end-to-end experiment
problem.generator = subset_selection
problem.m = 40
problem.n = 12
problem.seed = 3
problem.nl = 0.02
problem.noise_seed = 5

solver.irn-lsqr.family = irn
solver.irn-lsqr.seed = 1
solver.irn-lsqr.lambda = 0.5
solver.irn-lsqr.outer_max = 3
solver.irn-lsqr.tau = 1e-4

solver.sns-irw-flsqr.family = flex
solver.sns-irw-flsqr.seed = 2
solver.sns-irw-flsqr.mode = irw
solver.sns-irw-flsqr.scheme = sketch_and_solve
solver.sns-irw-flsqr.k_max = 5
solver.sns-irw-flsqr.lambda = 0.5
solver.sns-irw-flsqr.tau = 1e-4
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


ROOT = Path(__file__).resolve().parents[1]


def _shipped_configs():
    """(label, text) of every config the repository runs: the CONFIG of each
    experiment script and each benchmark workload at its default seed."""
    for script in sorted((ROOT / "scripts").glob("experiment*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        (text,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["CONFIG"]]
        yield script.name, text
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    for name, w in workloads["WORKLOADS"].items():
        yield f"workload {name}", w.config(w.default_seed)


def test_every_shipped_config_passes_validation(tmp_path):
    # a shipped config that the runner starts refusing would exit 2 in the
    # experiment scripts and fail every benchmark run
    labels = []
    for i, (label, text) in enumerate(_shipped_configs()):
        cfg = parse_config(_write(tmp_path, text, f"shipped{i}.cfg"))
        inst = build_problem(cfg)
        names = cli._solver_names(cfg)
        assert names, label
        for name in names:
            assert callable(cli._solver_call(name, cfg, inst)), (label, name)
        labels.append(label)
    assert len(labels) == 6, labels


def test_parse_config(tmp_path):
    path = _write(tmp_path, "a.b = 1  # comment\n\n# full comment\nc = x y\n")
    cfg = parse_config(path)
    assert cfg == {"a.b": "1", "c": "x y"}
    bad = _write(tmp_path, "just a line\n", "bad.cfg")
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_run_writes_schema_and_is_deterministic(tmp_path):
    cfg = _write(tmp_path, TINY)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("irn-lsqr", "sns-irw-flsqr"):
        t1 = (out1 / f"{name}.trace.csv").read_bytes()
        t2 = (out2 / f"{name}.trace.csv").read_bytes()
        assert t1 == t2
        header = t1.decode().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert (out1 / f"{name}.x.f64").exists()
        meta = json.loads((out1 / f"{name}.x.json").read_text())
        assert meta["solver"] == name
    assert (out1 / "summary.csv").exists()
    assert (out1 / "summary.txt").exists()


def test_run_threads_matches_serial(tmp_path):
    cfg = _write(tmp_path, TINY)
    out1, out2 = tmp_path / "s", tmp_path / "t"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2),
                 "--threads", "2"]) == 0
    for name in ("irn-lsqr", "sns-irw-flsqr"):
        assert (out1 / f"{name}.trace.csv").read_bytes() == \
            (out2 / f"{name}.trace.csv").read_bytes()


def test_seed_override_changes_problem(tmp_path):
    cfg = _write(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2),
                 "--seed-override", "99"]) == 0
    assert (out1 / "irn-lsqr.trace.csv").read_bytes() != \
        (out2 / "irn-lsqr.trace.csv").read_bytes()


def test_sketched_flex_pilot_fits_a_square_problem(tmp_path):
    # k_max = 12 on a 12x12 problem: the pilot stops at depth m - 1 = 11
    for basis in ("golub_kahan", "arnoldi"):
        cfg = _write(tmp_path, (
            "problem.generator = subset_selection\nproblem.m = 12\n"
            "problem.n = 12\nproblem.seed = 3\nproblem.nl = 0.02\n"
            "problem.noise_seed = 5\n"
            "solver.sns.family = flex\nsolver.sns.seed = 2\n"
            "solver.sns.scheme = sketch_and_solve\nsolver.sns.k_max = 12\n"
            f"solver.sns.lambda = 0.5\nsolver.sns.basis = {basis}\n"
        ), f"square-{basis}.cfg")
        out = tmp_path / basis
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0, basis
        assert len(read_trace(str(out / "sns.trace.csv"))[1]) == 12, basis


def test_exit_code_2_on_config_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    missing_seed = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 10\n"
        "problem.n = 4\nproblem.seed = 1\nsolver.a.family = irn\n"
    ), "noseed.cfg")
    assert main(["run", "--config", missing_seed,
                 "--out", str(tmp_path / "x")]) == 2
    no_solver = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 10\n"
        "problem.n = 4\nproblem.seed = 1\n"
    ), "nosolver.cfg")
    assert main(["run", "--config", no_solver,
                 "--out", str(tmp_path / "y")]) == 2
    bad_gen = _write(tmp_path, (
        "problem.generator = mystery\nproblem.seed = 1\n"
        "solver.a.family = irn\nsolver.a.seed = 1\n"
    ), "badgen.cfg")
    assert main(["run", "--config", bad_gen,
                 "--out", str(tmp_path / "z")]) == 2
    # values the solver configs reject with ValueError
    base = ("problem.generator = subset_selection\nproblem.m = 20\n"
            "problem.n = 6\nproblem.seed = 1\n")
    for i, keys in enumerate([
        "family = flex\nk_max = 0", "family = flex\nell = 0",
        "family = flex\nell = two",
        "family = flex\nscheme = sketch_to_precondition\ninner_tol = 0",
        "family = irn\nlambda = -1", "family = irn\nnl = -0.1",
        "family = irn\nlambda_policy = dp\nnl = 0",
        "family = irn\ninner_max = 0", "family = irn\ninner_tol = 0",
        "family = irn\ninner_tol = inf", "family = irn_s2p\ninner_tol = inf",
        "family = flex\nscheme = sketch_to_precondition\ninner_tol = inf",
        "family = lsqr\nlambda = -1",
        "family = irn\ntau = nan", "family = fista\ntau = inf",
        "family = irn\nlambda = nan", "family = flex\nlambda = inf",
        "family = irn\nlambda_policy = dp\nnl = nan",
        "family = irn\nlambda_policy = dp\nnl = 0.1\ntau_lambda = inf",
        "family = flex\nscheme = sketch_to_precondition\n"
        "lambda_policy = gcv",
    ]):
        solver = "".join(f"solver.a.{kv}\n" for kv in
                         ["seed = 1"] + keys.split("\n"))
        cfg = _write(tmp_path, base + solver, f"bad{i}.cfg")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / f"b{i}")]) == 2, keys
    # k_max below 1 in every family, and sketch_multiplier below 1; gmres
    # needs a square problem to reach its k_max
    square = base.replace("problem.m = 20", "problem.m = 6")
    for i, (problem, keys) in enumerate([
        (base, "family = lsqr\nk_max = 0"),
        (square, "family = gmres\nk_max = 0"),
        (base, "family = fista\nk_max = 0"),
        (base, "family = irn\nk_max = 0"),
        (base, "family = irn_s2p\nk_max = 0"),
        (base, "family = flex\nscheme = exact\nk_max = 0"),
        (base, "family = irn_s2p\nsketch_multiplier = 0"),
        (base, "family = flex\nsketch_multiplier = -3"),
        (base, "family = flex\nscheme = sketch_to_precondition\n"
               "sketch_multiplier = 0"),
    ]):
        solver = "".join(f"solver.a.{kv}\n" for kv in
                         ["seed = 1"] + keys.split("\n"))
        cfg = _write(tmp_path, problem + solver, f"badk{i}.cfg")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / f"k{i}")]) == 2, keys
    # problems the generators reject with ValueError, in gen and in run;
    # subset_selection(40, 18, seed 3) draws an all-zero x_true, so b = 0
    # cannot take relative noise
    for i, problem in enumerate([
        "subset_selection\nproblem.m = 0\nproblem.n = 6",
        "tomo\nproblem.nx = 8",
        "subset_selection\nproblem.m = 40\nproblem.n = 18\nproblem.nl = 0.01",
    ]):
        cfg = _write(tmp_path, (
            f"problem.generator = {problem}\nproblem.seed = 3\n"
            "solver.a.family = irn\nsolver.a.seed = 1\n"
        ), f"badproblem{i}.cfg")
        for cmd in ("gen", "run"):
            assert main([cmd, "--config", cfg,
                         "--out", str(tmp_path / f"p{i}{cmd}")]) == 2, problem
    # a negative seed, which Philox would refuse only when a sketch is drawn
    for family in ("flex", "irn_s2p", "lsqr"):
        cfg = _write(tmp_path, base + (
            f"solver.a.family = {family}\nsolver.a.seed = -1\n"
        ), f"negseed-{family}.cfg")
        out = tmp_path / f"n{family}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2, family
        assert not out.exists()


def test_every_solver_is_checked_before_the_first_runs(tmp_path,
                                                       monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "irn_solve",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 20\n"
        "problem.n = 6\nproblem.seed = 1\n"
        "solver.a.family = irn\nsolver.a.seed = 1\n"
        "solver.b.family = flex\nsolver.b.seed = 1\nsolver.b.k_max = 0\n"
    ), "late-bad.cfg")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists() or not any(out.iterdir())


def test_no_solve_result_outlives_its_write(tmp_path, monkeypatch):
    refs, alive_at_start = [], []
    real_run_solver = cli.run_solver

    def tracked(name, cfg, inst):
        gc.collect()
        alive_at_start.append([r() is not None for r in refs])
        result = real_run_solver(name, cfg, inst)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_solver", tracked)
    cfg = _write(tmp_path, TINY)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert alive_at_start == [[], [False]]


def test_families_without_a_lambda_rule_reject_one(tmp_path, capsys):
    # fista, lsqr and gmres solve at the fixed lambda only; any other rule
    # exits 2 before a solver runs
    base = ("problem.generator = subset_selection\nproblem.m = 12\n"
            "problem.n = 12\nproblem.seed = 3\n")
    for i, (family, kind) in enumerate([
        ("fista", "dp"), ("lsqr", "optimal"), ("gmres", "dp"),
        ("fista", "gcv"), ("lsqr", "fixed"),
    ]):
        solver = "".join(f"solver.a.{kv}\n" for kv in (
            f"family = {family}", "seed = 1", f"lambda_policy = {kind}",
            "nl = 0.02", "k_max = 3"))
        cfg = _write(tmp_path, base + solver, f"rule{i}.cfg")
        out = tmp_path / f"r{i}"
        code = main(["run", "--config", cfg, "--out", str(out)])
        if kind == "fixed":
            assert code == 0
            continue
        assert code == 2, (family, kind)
        assert "has no lambda rule" in capsys.readouterr().err
        assert not out.exists()


def test_gmres_rejects_a_lambda(tmp_path, capsys):
    # gmres solves at lambda = 0 only; a lambda key exits 2, not a run at 0
    cfg = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 12\n"
        "problem.n = 12\nproblem.seed = 3\n"
        "solver.a.family = gmres\nsolver.a.seed = 1\n"
        "solver.a.lambda = 5.0\nsolver.a.k_max = 3\n"), "gmres.cfg")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "takes no lambda" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_solver_keys_exit_2(tmp_path, capsys):
    # a key that the solver's family does not read is rejected by name,
    # before any solver runs
    base = ("problem.generator = subset_selection\nproblem.m = 20\n"
            "problem.n = 6\nproblem.seed = 1\n")
    for i, (family, key) in enumerate([
        ("flex", "lamda = 5.0"), ("irn", "ell = 4"),
        ("flex", "outer_max = 3"), ("fista", "tol = 0"),
        ("lsqr", "inner_tol = 1e-6"),
        # read only where a sketch is drawn, and by s2p's inner solves
        ("irn", "sketch_multiplier = 9"), ("fista", "sketch_multiplier = 9"),
        ("flex\nscheme = exact", "sketch_multiplier = 9"),
        ("flex\nscheme = exact", "inner_tol = 1e-6"),
        ("flex\nscheme = sketch_and_solve", "inner_tol = 1e-6"),
    ]):
        solver = "".join(f"solver.t.{kv}\n" for kv in (
            *f"family = {family}".split("\n"), "seed = 1", "k_max = 3", key))
        cfg = _write(tmp_path, base + solver, f"unknown{i}.cfg")
        out = tmp_path / f"u{i}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2, key
        err = capsys.readouterr().err
        assert "unknown key" in err and key.split(" ")[0] in err, err
        assert not out.exists()


@pytest.mark.parametrize("family", ["lsqr", "gmres"])
def test_bad_krylov_baseline_tol_exits_2(tmp_path, capsys, family):
    # a NaN, negative or infinite tol is refused before any solver runs; with
    # tol = inf LSQR would stop at its first iteration and exit 0. tol = 0
    # (run to k_max, as the tomo workload does) stays valid
    base = ("problem.generator = identity\nproblem.n = 6\nproblem.seed = 1\n"
            f"solver.t.family = {family}\nsolver.t.seed = 1\n"
            "solver.t.k_max = 3\n")
    for i, tol in enumerate(["nan", "-1", "inf", "-inf"]):
        cfg = _write(tmp_path, base + f"solver.t.tol = {tol}\n",
                     f"tol{i}.cfg")
        out = tmp_path / f"t{i}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2, tol
        assert "tol must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()
    cfg = _write(tmp_path, base + "solver.t.tol = 0\n", "tol0.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0


def test_unknown_problem_keys_exit_2(tmp_path, capsys):
    # a problem key that the generator does not read is rejected by name,
    # bundles included, in gen and in run; so is a malformed noise_seed,
    # also where nl = 0 draws no noise
    bundle = tmp_path / "idb"
    write_bundle(build_problem({"problem.generator": "identity",
                                "problem.n": "6", "problem.seed": "2"}),
                 str(bundle))
    for i, (problem, key) in enumerate([
        ("starfield\nproblem.nx = 16\nproblem.seed = 1", "m = 5"),
        ("subset_selection\nproblem.m = 20\nproblem.n = 6\nproblem.seed = 1",
         "bogus = 3"),
        ("identity\nproblem.n = 6\nproblem.seed = 1", "n_angles = 4"),
        (f"bundle\nproblem.bundle = {bundle}", "nl = 0.1"),
        ("identity\nproblem.n = 6\nproblem.seed = 1", "noise_seed = x"),
    ]):
        cfg = _write(tmp_path, (
            f"problem.generator = {problem}\nproblem.{key}\n"
            "solver.a.family = irn\nsolver.a.seed = 1\n"
        ), f"unknown-problem{i}.cfg")
        for cmd in ("gen", "run"):
            out = tmp_path / f"q{i}{cmd}"
            assert main([cmd, "--config", cfg, "--out", str(out)]) == 2, key
            err = capsys.readouterr().err
            assert key.split(" ")[0] in err, err
            assert not out.exists()
    quiet = build_problem({"problem.generator": "identity", "problem.n": "6",
                           "problem.seed": "1", "problem.noise_seed": "4"})
    np.testing.assert_array_equal(quiet.b, quiet.b_exact)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_with_fewer_than_one_thread_exits_2(tmp_path, threads):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--out", str(out),
              "--threads", threads])
    assert exc.value.code == 2
    assert not out.exists()


def test_exit_code_3_on_solver_failure(tmp_path, capsys):
    # the irn-s2p leverage sketch needs a tall A, which only its solve finds
    # out; the solver that finished first keeps its outputs, and no summary
    # is written
    cfg = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 12\n"
        "problem.n = 40\nproblem.seed = 3\n"
        "solver.ok.family = irn\nsolver.ok.seed = 1\n"
        "solver.ok.outer_max = 2\n"
        "solver.a.family = irn_s2p\nsolver.a.seed = 1\n"
    ), "fail.cfg")
    out = tmp_path / "f"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "at least as many rows as columns" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == \
        ["ok.trace.csv", "ok.x.f64", "ok.x.json"]


def test_irn_wgcv_is_a_config_error(tmp_path, capsys):
    # IRN's full system has no wgcv rule: the run stops at validation, before
    # the first solver writes anything
    cfg = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 40\n"
        "problem.n = 12\nproblem.seed = 3\n"
        "solver.ok.family = fista\nsolver.ok.seed = 1\n"
        "solver.a.family = irn\nsolver.a.seed = 1\n"
        "solver.a.lambda_policy = wgcv\n"
    ), "wgcv.cfg")
    out = tmp_path / "w"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "wgcv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", ["irn", "irn_s2p"])
def test_irn_dp_at_lambda_zero(family):
    # at 5 % noise the unregularized residual already exceeds a 1 % dp
    # target, so dp picks lambda = 0; the s2p factor floors it, while LSQR
    # and the trace keep 0
    cfg = {"problem.generator": "subset_selection", "problem.m": "400",
           "problem.n": "80", "problem.seed": "7", "problem.nl": "0.05",
           "problem.noise_seed": "11", "solver.t.family": family,
           "solver.t.seed": "1", "solver.t.lambda_policy": "dp",
           "solver.t.nl": "0.01", "solver.t.outer_max": "4"}
    res = cli.run_solver("t", cfg, build_problem(cfg))
    assert res.column("lam") == [0.0] * 4
    assert np.all(np.isfinite(res.x))


def test_gen_and_bundle_roundtrip(tmp_path):
    cfg = _write(tmp_path, (
        "problem.generator = subset_selection\nproblem.m = 30\n"
        "problem.n = 8\nproblem.seed = 11\nproblem.nl = 0.01\n"
        "problem.noise_seed = 12\n"
    ), "gen.cfg")
    bundle = tmp_path / "bundle"
    assert main(["gen", "--config", cfg, "--out", str(bundle)]) == 0
    names = {p.name for p in bundle.iterdir()}
    assert {"A.meta.json", "x_true.f64", "b.f64", "b_exact.f64",
            "A.f64"} <= names
    inst = load_bundle(str(bundle))
    direct = build_problem(parse_config(cfg))
    np.testing.assert_array_equal(inst.b, direct.b)
    np.testing.assert_array_equal(inst.x_true, direct.x_true)
    np.testing.assert_array_equal(inst.A.matrix, direct.A.materialize())
    # little-endian float64 on disk
    raw = np.fromfile(bundle / "b.f64", dtype="<f8")
    np.testing.assert_array_equal(raw, direct.b)


def test_report_from_traces(tmp_path, capsys):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", str(out / "irn-lsqr.trace.csv"),
                 str(out / "sns-irw-flsqr.trace.csv"),
                 "--out", str(rep)]) == 0
    text = capsys.readouterr().out
    assert "irn-lsqr" in text and "sns-irw-flsqr" in text
    assert (rep / "summary.csv").exists()
    # the run summarizes its rows in memory; the CSVs hold them exactly
    for name in ("summary.csv", "summary.txt"):
        assert (rep / name).read_bytes() == (out / name).read_bytes(), name
    assert main(["report"]) == 2


@pytest.mark.parametrize("case", ["missing", "malformed", "short"])
def test_report_on_a_bad_trace_is_a_config_error(tmp_path, capsys, case):
    path = tmp_path / "t.trace.csv"
    good = ["s", "1", "1", "0.5", "1.0", "1.0", "0.5", "", "", "0"]
    bad = {"malformed": ["s", "one"] + good[2:], "short": good[:3]}
    if case != "missing":
        path.write_text("\n".join([",".join(CSV_COLUMNS), ",".join(good),
                                   ",".join(bad[case])]) + "\n")
    assert main(["report", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
    assert not (tmp_path / "o" / "summary.csv").exists()


def test_report_refuses_two_traces_of_one_solver(tmp_path, capsys):
    # two trace files of one solver name would fold into one summary row
    cfg = _write(tmp_path, TINY)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    first = str(tmp_path / "o" / "irn-lsqr.trace.csv")
    second = str(tmp_path / "i.trace.csv")
    shutil.copy(first, second)
    rep = tmp_path / "rep"
    assert main(["report", first, second, "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert "'irn-lsqr'" in err and first in err and second in err, err
    assert not rep.exists()


def test_trace_csv_header_is_unchanged():
    assert CSV_COLUMNS == [
        "solver", "outer_iter", "cum_inner_iter", "rel_error", "objective_mm",
        "objective_literal", "lambda", "eps_hat", "mono_cond_satisfied",
        "breakdown_flag",
    ]
    header = trace_to_csv("s", SolveResult(np.zeros(1), [])).splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_read_trace_returns_every_written_field(tmp_path):
    nan = float("nan")
    rows = [
        TraceRow(1, 3, nan, 2.5, 2.75, 0.0),
        TraceRow(2, 7, 0.1 / 3, 1.0 / 3, 0.4, 1e-14, eps_hat=0.25,
                 mono_satisfied=True),
        TraceRow(3, 8, 1.5, 0.3, 0.35, 2.0, eps_hat=nan,
                 mono_satisfied=False, breakdown=True),
    ]
    path = tmp_path / "rt.trace.csv"
    path.write_text(trace_to_csv("rt", SolveResult(np.zeros(1), rows)))
    name, back = read_trace(str(path))
    assert name == "rt" and len(back) == len(rows)
    # stagnated is no column (it goes to a sidecar): it reads back False
    written = [f.name for f in fields(TraceRow) if f.name != "stagnated"]
    for row, got in zip(rows, back):
        for field in written:
            want, have = getattr(row, field), getattr(got, field)
            assert type(want) is type(have), field
            assert have == want or (want != want and have != have), field


def test_read_trace_rejects_bad_schema(tmp_path):
    bad = tmp_path / "bad.trace.csv"
    bad.write_text("solver,outer_iter\nfoo,1\n")
    with pytest.raises(ConfigError):
        read_trace(str(bad))


_BAD_PROBLEM_FLOATS = [
    *((key, value) for key in ("nl", "rho", "bern_p", "density", "sigma_blur")
      for value in ("nan", "inf")),
    ("nl", "-0.05"), ("rho", "1.0"), ("rho", "-0.1"), ("bern_p", "0"),
    ("bern_p", "1.5"), ("density", "-0.1"), ("density", "1.5"),
    ("sigma_blur", "-2"), ("sigma_blur", "0"),
]


@pytest.mark.parametrize("key, value", _BAD_PROBLEM_FLOATS)
def test_bad_float_problem_values_exit_2(tmp_path, capsys, key, value):
    # every float key under problem. refuses NaN, inf and an out-of-range
    # value in gen and in run, before anything is written
    problem = ("subset_selection\nproblem.m = 20\nproblem.n = 6"
               if key in ("rho", "bern_p") else "starfield\nproblem.nx = 16")
    cfg = _write(tmp_path, (
        f"problem.generator = {problem}\nproblem.seed = 1\n"
        f"problem.{key} = {value}\n"
        "solver.a.family = irn\nsolver.a.seed = 1\nsolver.a.outer_max = 1\n"
    ))
    for cmd in ("gen", "run"):
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 2, cmd
        assert "config error: problem:" in capsys.readouterr().err
        assert not out.exists()


def test_bundle_roundtrip_helpers(tmp_path):
    inst = build_problem({
        "problem.generator": "identity", "problem.n": "6",
        "problem.seed": "2",
    })
    write_bundle(inst, str(tmp_path / "idb"))
    back = load_bundle(str(tmp_path / "idb"))
    np.testing.assert_array_equal(back.x_true, inst.x_true)
    b = inst.b.copy()
    b[2] = np.nan
    b.astype("<f8").tofile(str(tmp_path / "idb" / "b.f64"))
    with pytest.raises(ConfigError):
        load_bundle(str(tmp_path / "idb"))


def _bundle_config(tmp_path, bundle):
    write_bundle(build_problem({"problem.generator": "identity",
                                "problem.n": "6", "problem.seed": "2"}),
                 str(bundle))
    return _write(tmp_path, (
        f"problem.generator = bundle\nproblem.bundle = {bundle}\n"
        "solver.irn-lsqr.family = irn\nsolver.irn-lsqr.seed = 1\n"
        "solver.irn-lsqr.outer_max = 2\n"
    ), "bundle.cfg")


def test_bundle_with_non_finite_operator_exits_2(tmp_path):
    bundle = tmp_path / "idb"
    cfg = _bundle_config(tmp_path, bundle)
    A = np.eye(6)
    A[1, 4] = np.inf
    A.astype("<f8").tofile(str(bundle / "A.f64"))
    with pytest.raises(ConfigError, match="non-finite"):
        load_bundle(str(bundle))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bundle_with_wrong_operator_size_exits_2(tmp_path):
    bundle = tmp_path / "idb"
    cfg = _bundle_config(tmp_path, bundle)
    np.eye(6)[:5].astype("<f8").tofile(str(bundle / "A.f64"))
    with pytest.raises(ConfigError, match="30 entries, expected 36"):
        load_bundle(str(bundle))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("dim", ["nrows", "ncols"])
def test_bundle_with_an_empty_dimension_exits_2(tmp_path, dim):
    # a consistent bundle of an m x 0 or 0 x n operator: every file holds
    # the entries its metadata asks for
    bundle = tmp_path / "idb"
    cfg = _bundle_config(tmp_path, bundle)
    meta = json.loads((bundle / "A.meta.json").read_text())
    meta[dim] = 0
    (bundle / "A.meta.json").write_text(json.dumps(meta))
    empty = ["A"] + (["b", "b_exact"] if dim == "nrows" else ["x_true"])
    for name in empty:
        (bundle / f"{name}.f64").write_bytes(b"")
    with pytest.raises(ConfigError, match="dimensions"):
        load_bundle(str(bundle))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("nl", ["0.01", -0.1, float("nan"), True, None])
def test_bundle_with_a_bad_noise_level_exits_2(tmp_path, nl):
    bundle = tmp_path / "idb"
    cfg = _bundle_config(tmp_path, bundle)
    meta = json.loads((bundle / "A.meta.json").read_text())
    meta["nl"] = nl
    (bundle / "A.meta.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="noise level"):
        load_bundle(str(bundle))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_seed_override_on_a_bundle_exits_2(tmp_path, capsys):
    # a bundle holds its drawn data: an override would be silently ignored
    cfg = _bundle_config(tmp_path, tmp_path / "idb")
    for cmd in ("gen", "run"):
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out),
                     "--seed-override", "99"]) == 2, cmd
        assert "--seed-override" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("missing", ["directory", "meta"])
def test_missing_bundle_exits_2(tmp_path, missing):
    bundle = tmp_path / "idb"
    cfg = _bundle_config(tmp_path, bundle)
    if missing == "meta":
        (bundle / "A.meta.json").unlink()
    else:
        for f in bundle.iterdir():
            f.unlink()
        bundle.rmdir()
    with pytest.raises(ConfigError, match="cannot read bundle"):
        load_bundle(str(bundle))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_monotonicity_violations_compare_equal_lambda_only():
    def rows(objs, lams):
        return [TraceRow(outer=i + 1, cum_inner=i + 1, rel_error=float("nan"),
                         objective_mm=f, objective_literal=f, lam=lam)
                for i, (f, lam) in enumerate(zip(objs, lams))]

    rising = [1.0, 2.0, 3.0, 2.5, 4.0]
    changing = summarize_traces({"dp": rows(rising, [1, 2, 3, 4, 5])})
    fixed = summarize_traces({"fixed": rows(rising, [1.0] * 5)})
    mixed = summarize_traces({"mixed": rows(rising, [1, 1, 2, 2, 2])})
    assert changing[0]["monotonicity_violations"] == 0
    assert fixed[0]["monotonicity_violations"] == 3
    assert mixed[0]["monotonicity_violations"] == 2


def test_zero_rhs_krylov_families_record_one_zero_row(tmp_path):
    # b = 0: lsqr (alpha = 0) and gmres (beta = 0) stop before their first
    # step; the trace holds the returned x = 0 as its one row
    bundle = tmp_path / "zb"
    write_bundle(build_problem({
        "problem.generator": "subset_selection", "problem.m": "12",
        "problem.n": "12", "problem.seed": "3"}), str(bundle))
    np.zeros(12).astype("<f8").tofile(str(bundle / "b.f64"))
    cfg = _write(tmp_path, (
        f"problem.generator = bundle\nproblem.bundle = {bundle}\n"
        "solver.lsqr.family = lsqr\nsolver.lsqr.seed = 1\n"
        "solver.lsqr.lambda = 0.5\n"
        "solver.gmres.family = gmres\nsolver.gmres.seed = 1\n"
    ), "zero.cfg")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("lsqr", "gmres"):
        solver, rows = read_trace(str(out / f"{name}.trace.csv"))
        assert solver == name
        assert [(r.outer, r.cum_inner) for r in rows] == [(1, 1)], name
        assert rows[0].rel_error == 1.0, name
        x = np.fromfile(out / f"{name}.x.f64", dtype="<f8")
        np.testing.assert_array_equal(x, np.zeros(12))


IRN_S2P_PAIR = """
problem.generator = subset_selection
problem.m = 60
problem.n = 10
problem.seed = 4
problem.nl = 0.05
problem.noise_seed = 6
"""
IRN_S2P_SOLVERS = {
    "fixed": ("solver.fixed.family = irn_s2p\nsolver.fixed.seed = 3\n"
              "solver.fixed.lambda = 0.5\nsolver.fixed.outer_max = 4\n"),
    "dp": ("solver.dp.family = irn_s2p\nsolver.dp.seed = 5\n"
           "solver.dp.lambda_policy = dp\nsolver.dp.nl = 0.05\n"
           "solver.dp.outer_max = 4\n"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_irn_s2p_leverage_scores_once_per_run(tmp_path, monkeypatch,
                                               threads):
    calls, r_shapes = [], []
    real_scores, real_build = cli.estimate_leverage_scores, cli.build_problem

    def counted_scores(M, R=None):
        calls.append(M.shape)
        r_shapes.append(None if R is None else R.shape)
        return real_scores(M, R)

    def build_checked(*args, **kwargs):
        before = len(calls)
        inst = real_build(*args, **kwargs)
        assert len(calls) == before, "leverage scores computed while building"
        return inst

    monkeypatch.setattr(cli, "estimate_leverage_scores", counted_scores)
    monkeypatch.setattr(cli, "build_problem", build_checked)
    both = _write(tmp_path, IRN_S2P_PAIR + "".join(IRN_S2P_SOLVERS.values()),
                  "both.cfg")
    assert main(["run", "--config", both, "--out", str(tmp_path / "both"),
                 "--threads", threads]) == 0
    assert calls == [(60, 10)]
    assert r_shapes == [(10, 10)]  # the R of the run's one QR of [A, b]
    for name, text in IRN_S2P_SOLVERS.items():
        alone = _write(tmp_path, IRN_S2P_PAIR + text, f"{name}.cfg")
        assert main(["run", "--config", alone,
                     "--out", str(tmp_path / name)]) == 0
        for ext in ("trace.csv", "x.f64"):
            assert (tmp_path / "both" / f"{name}.{ext}").read_bytes() == \
                (tmp_path / name / f"{name}.{ext}").read_bytes(), (name, ext)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_irn_s2p_sketch_gram_once_per_seed_and_multiplier(
        tmp_path, monkeypatch, threads):
    # solvers that draw one sketch (the same seed and multiplier) share its
    # Gram C0 = (S A)^T (S A): the second forms no S A, and each returns
    # the bytes it returns alone; another multiplier forms its own
    gathers = []
    real = irn.apply_sketch

    def counted(S, M):
        gathers.append((S.s, M.shape))
        return real(S, M)

    monkeypatch.setattr(irn, "apply_sketch", counted)
    solvers = dict(IRN_S2P_SOLVERS, wide=(
        "solver.wide.family = irn_s2p\nsolver.wide.seed = 3\n"
        "solver.wide.sketch_multiplier = 5\nsolver.wide.lambda = 0.5\n"
        "solver.wide.outer_max = 4\n"))
    solvers["dp"] = solvers["dp"].replace("seed = 5", "seed = 3")
    every = _write(tmp_path, IRN_S2P_PAIR + "".join(solvers.values()),
                   "all.cfg")
    assert main(["run", "--config", every, "--out", str(tmp_path / "all"),
                 "--threads", threads]) == 0
    assert sorted(gathers) == [(40, (60, 10)), (50, (60, 10))]
    for name, text in solvers.items():
        alone = _write(tmp_path, IRN_S2P_PAIR + text, f"{name}.cfg")
        assert main(["run", "--config", alone,
                     "--out", str(tmp_path / name)]) == 0
        for ext in ("trace.csv", "x.f64"):
            assert (tmp_path / "all" / f"{name}.{ext}").read_bytes() == \
                (tmp_path / name / f"{name}.{ext}").read_bytes(), (name, ext)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_irn_reduction_once_per_run(tmp_path, monkeypatch, threads):
    # irn, irn_s2p and irn_s2p with dp share one QR of the dense [A, b],
    # taken when the first of them runs
    calls = []
    real_reduce = cli._reduce_system
    real_build, real_call = cli.build_problem, cli._solver_call

    def counted(M, b):
        calls.append(M.shape)
        return real_reduce(M, b)

    def build_checked(*args, **kwargs):
        before = len(calls)
        inst = real_build(*args, **kwargs)
        assert len(calls) == before, "reduced while building the problem"
        return inst

    def call_checked(*args, **kwargs):
        before = len(calls)
        solve = real_call(*args, **kwargs)
        assert len(calls) == before, "reduced while validating the config"
        return solve

    for module in (cli, irn):
        monkeypatch.setattr(module, "_reduce_system", counted)
    monkeypatch.setattr(cli, "build_problem", build_checked)
    monkeypatch.setattr(cli, "_solver_call", call_checked)
    solvers = dict(IRN_S2P_SOLVERS, plain=(
        "solver.plain.family = irn\nsolver.plain.seed = 1\n"
        "solver.plain.lambda = 0.5\nsolver.plain.outer_max = 4\n"))
    both = _write(tmp_path, IRN_S2P_PAIR + "".join(solvers.values()),
                  "all.cfg")
    assert main(["run", "--config", both, "--out", str(tmp_path / "all"),
                 "--threads", threads]) == 0
    assert calls == [(60, 10)]
    for name, text in solvers.items():
        alone = _write(tmp_path, IRN_S2P_PAIR + text, f"{name}.cfg")
        assert main(["run", "--config", alone,
                     "--out", str(tmp_path / name)]) == 0
        for ext in ("trace.csv", "x.f64"):
            assert (tmp_path / "all" / f"{name}.{ext}").read_bytes() == \
                (tmp_path / name / f"{name}.{ext}").read_bytes(), (name, ext)


FLEX_SOLVERS = {
    scheme: "".join(f"solver.{scheme}.{kv}\n" for kv in (
        "family = flex", "seed = 2", f"scheme = {scheme}", "k_max = 5",
        "lambda = 0.5", "tau = 1e-4"))
    for scheme in ("sketch_and_solve", "sketch_to_precondition")
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_flex_sketches_once_per_problem_and_key(tmp_path, monkeypatch,
                                                threads):
    calls = []
    real = cli.build_flex_sketches

    def counted(A, b, k_max, mult, seed):
        calls.append(seed)
        return real(A, b, k_max, mult, seed)

    monkeypatch.setattr(cli, "build_flex_sketches", counted)
    text = IRN_S2P_PAIR + "".join(FLEX_SOLVERS.values())
    both = _write(tmp_path, text, "both.cfg")
    assert main(["run", "--config", both, "--out", str(tmp_path / "both"),
                 "--threads", threads]) == 0
    assert calls == [2]
    for name, solver in FLEX_SOLVERS.items():
        alone = _write(tmp_path, IRN_S2P_PAIR + solver, f"{name}.cfg")
        assert main(["run", "--config", alone,
                     "--out", str(tmp_path / name)]) == 0
        for ext in ("trace.csv", "x.f64"):
            assert (tmp_path / "both" / f"{name}.{ext}").read_bytes() == \
                (tmp_path / name / f"{name}.{ext}").read_bytes(), (name, ext)
    # a different seed, or a different b on the same A, draws its own
    cfg = parse_config(both)
    inst = build_problem(cfg)
    del calls[:]
    cli.run_solver("sketch_and_solve", cfg, inst)
    cfg["solver.sketch_and_solve.seed"] = "3"
    cli.run_solver("sketch_and_solve", cfg, inst)
    cli.run_solver("sketch_and_solve", cfg, replace(inst, b=2.0 * inst.b))
    cli.run_solver("sketch_to_precondition", cfg, inst)
    assert calls == [2, 3, 3]


def test_no_problem_outlives_its_run(tmp_path, monkeypatch):
    # the irn-s2p leverage scores and the flex sketches are kept for the
    # run's A, not past it
    problems = []
    real_build = cli.build_problem

    def build_recorded(*args, **kwargs):
        inst = real_build(*args, **kwargs)
        problems.append(weakref.ref(inst.A))
        return inst

    monkeypatch.setattr(cli, "build_problem", build_recorded)
    cfg = _write(tmp_path, IRN_S2P_PAIR + "".join(IRN_S2P_SOLVERS.values())
                 + "".join(FLEX_SOLVERS.values()))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    gc.collect()
    assert [ref() for ref in problems] == [None]


STARFIELD16 = ("problem.generator = starfield\nproblem.nx = 16\n"
               "problem.seed = 3\nproblem.nl = 0.01\nproblem.noise_seed = 4\n")


def _count_materialize(monkeypatch):
    """The shape of each operator materialized since the spy was set."""
    calls = []
    real = LinearOperator.materialize

    def counted(op):
        calls.append(op.shape)
        return real(op)

    monkeypatch.setattr(LinearOperator, "materialize", counted)
    return calls


def test_irn_on_a_matrix_free_A_materializes_it_once_per_solver(
        tmp_path, monkeypatch):
    # each irn_s2p solve materializes the blur once, for its sketch Gram,
    # and the first also for the reduced system and leverage scores, which
    # the second reads from the per-problem cache; an irn with dp
    # materializes it once and reduces it in its loop: 3 materializations
    # (6 when the leverage scores, each Gram and each loop took one apiece)
    # and 2 reductions (3 when each irn_s2p solve took its own); an irn at
    # fixed lambda takes neither
    calls, reductions = _count_materialize(monkeypatch), []
    real_reduce = cli._reduce_system

    def counted_reduce(M, b):
        reductions.append(M.shape)
        return real_reduce(M, b)

    for module in (cli, irn):
        monkeypatch.setattr(module, "_reduce_system", counted_reduce)
    solvers = "".join(
        f"solver.{name}.family = {family}\nsolver.{name}.seed = {seed}\n"
        f"solver.{name}.outer_max = 2\nsolver.{name}.{keys}\n"
        for name, family, seed, keys in (
            ("s2p-1", "irn_s2p", 1, "lambda = 0.001"),
            ("s2p-2", "irn_s2p", 2, "lambda = 0.001"),
            ("dp", "irn", 1, "lambda_policy = dp\nsolver.dp.nl = 0.01"),
            ("fixed", "irn", 1, "lambda = 0.001")))
    cfg = _write(tmp_path, STARFIELD16 + solvers, "free.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "f")]) == 0
    assert calls == [(256, 256)] * 3
    assert reductions == [(256, 256)] * 2


def test_irn_s2p_pair_on_a_matrix_free_A_materializes_it_once(
        tmp_path, monkeypatch):
    # two irn_s2p solvers with one seed and multiplier: the second finds the
    # reduced system, the leverage scores and the sketch Gram cached, so it
    # materializes nothing, and each returns the bytes it returns alone
    calls = _count_materialize(monkeypatch)
    solvers = {
        name: (f"solver.{name}.family = irn_s2p\nsolver.{name}.seed = 1\n"
               f"solver.{name}.outer_max = 2\nsolver.{name}.{keys}\n")
        for name, keys in (("fixed", "lambda = 0.001"),
                           ("dp", "lambda_policy = dp\nsolver.dp.nl = 0.01"))}
    both = _write(tmp_path, STARFIELD16 + "".join(solvers.values()),
                  "both.cfg")
    assert main(["run", "--config", both,
                 "--out", str(tmp_path / "both")]) == 0
    assert calls == [(256, 256)]
    for name, text in solvers.items():
        alone = _write(tmp_path, STARFIELD16 + text, f"{name}.cfg")
        assert main(["run", "--config", alone,
                     "--out", str(tmp_path / name)]) == 0
        for ext in ("trace.csv", "x.f64"):
            assert (tmp_path / "both" / f"{name}.{ext}").read_bytes() == \
                (tmp_path / name / f"{name}.{ext}").read_bytes(), (name, ext)
