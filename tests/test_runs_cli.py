"""Run configs, persistence, sweeps, the verify suite and the CLI surface."""

import ast
import csv
import importlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fracmk
from fracmk import runs
from fracmk.cli import main
from fracmk.forms import OperatorData, SourceData, Threshold, isotropic_operator
from fracmk.lattice import omega_fft
from fracmk.penalty import Solution, SolverConfig
from fracmk.runs import (
    config_from_mapping,
    load_config,
    run_dependence,
    run_localize,
    run_oracle,
    run_solve,
    run_verify,
    weak_battery,
)


def base_mapping(**overrides):
    cfg = {
        "grid": {
            "dim": 1,
            "box_side": 4.0,
            "points_per_axis": 64,
            "omega": {"shape": "interval", "halfwidth": 1.0},
            "buffer": 0.6,
        },
        "s": 0.7,
        "operator": {"a": 1.0},
        "source": {"f_sharp": 2.0},
        "threshold": {"g": 1.0},
        "solver": {"eps_schedule": [0.1, 0.03]},
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


def test_config_validation_rejects_bad_s():
    with pytest.raises(ValueError):
        config_from_mapping(base_mapping(s=1.5))
    with pytest.raises(ValueError):
        config_from_mapping(base_mapping(s_list=[0.5, -0.1]))
    # RunConfig.s is the first entry of s_list
    with pytest.raises(ValueError, match="s_list must not be empty"):
        config_from_mapping(base_mapping(s_list=[]))


def test_config_validation_rejects_bad_omega():
    cfg = base_mapping()
    cfg["grid"]["omega"] = {"shape": "triangle"}
    with pytest.raises(ValueError):
        config_from_mapping(cfg)


def test_config_validates_presets_before_solving():
    cfg = base_mapping(operator={"a": {"preset": "nope"}})
    with pytest.raises(ValueError):
        config_from_mapping(cfg)


def test_config_rejects_unknown_solver_keys():
    solver = {"newton_tl": 1e-3, "eps_shedule": [0.1, 0.01]}
    with pytest.raises(ValueError, match="unknown solver keys: eps_shedule, newton_tl"):
        config_from_mapping(base_mapping(solver=solver))
    for removed in ({"damping": 1e-11}, {"min_step": 1e-7}, {"seed": 1}):
        with pytest.raises(ValueError, match="unknown solver keys"):
            config_from_mapping(base_mapping(solver=removed))
    # q is always default_q(d, s), and eps_schedule is the only eps setting
    with pytest.raises(ValueError, match="unknown solver keys: q$"):
        config_from_mapping(base_mapping(solver={"q": 4.0}))
    with pytest.raises(ValueError, match="unknown solver keys: eps$"):
        config_from_mapping(base_mapping(solver={"eps": 0.05}))
    every = {"eps_schedule": [0.1, 0.01], "newton_tol": 1e-9, "max_iters": 50}
    cfg = config_from_mapping(base_mapping(solver=every))
    assert cfg.solver == SolverConfig(eps_schedule=(0.1, 0.01), newton_tol=1e-9, max_iters=50)
    # SolverConfig alone coerces its fields
    assert type(config_from_mapping(base_mapping(solver={"newton_tol": 1})).solver.newton_tol) is float
    with pytest.raises(ValueError, match="newton_tol"):
        config_from_mapping(base_mapping(solver={"newton_tol": float("nan")}))


def test_config_rejects_unknown_keys_in_every_checked_block():
    with pytest.raises(ValueError, match="unknown config keys: dependance, s_lst"):
        config_from_mapping(base_mapping(s_lst=[0.5], dependance={"tol": 1}))
    mapping = base_mapping()
    mapping["grid"]["buffr"] = 9
    with pytest.raises(ValueError, match="unknown grid keys: buffr"):
        config_from_mapping(mapping)
    for omega in ({"shape": "interval", "halfwidht": 1.0}, {"shape": "ball", "radius": 1.0, "halfwidth": 1.0}):
        mapping = base_mapping()
        mapping["grid"]["omega"] = omega
        with pytest.raises(ValueError, match="unknown grid.omega keys: half"):
            config_from_mapping(mapping)
    with pytest.raises(ValueError, match="unknown dependence keys: source_shift"):
        config_from_mapping(base_mapping(dependence={"source_shift": [0.1]}))
    # every accepted key at once still loads
    every = base_mapping(
        s_list=[0.7, 1.0],
        dependence={"tol": 1e-9, "source_shifts": [0.1], "threshold_shifts": [0.1]},
        integrability={"p1": 4, "q1": 3},
    )
    every["grid"]["omega"] = {"kind": "interval", "halfwidth": 1.0}
    cfg = config_from_mapping(every)
    assert cfg.s_list == (0.7, 1.0) and cfg.dependence_cfg["tol"] == 1e-9


def test_config_rejects_unknown_preset_keys():
    # {"operator": {"A": 2.0}} once solved with the default a = 1
    # and an a_star disagreeing with A once overrode it: a_* is read off A
    for block, bad in (
        ("operator", {"A": 2.0}),
        ("operator", {"a_star": 2.0}),
        ("source", {"f_sharpe": 5.0}),
        ("threshold", {"gg": 3.0}),
    ):
        with pytest.raises(ValueError, match=f"unknown {block} keys: {next(iter(bad))}$"):
            config_from_mapping(base_mapping(**{block: bad}))
    every = base_mapping(
        operator={"a": 2.0, "b": "zero", "dvec": "zero", "c": 0.5},
        source={"f_sharp": 2.0, "f_vec": "zero"},
        threshold={"g": 1.0, "replace": True, "k": None},
    )
    cfg = config_from_mapping(every)
    assert float(cfg.build_operator().A.max()) == 2.0


def test_absent_and_empty_blocks_build_the_same_problem():
    # the preset builders hold the only defaults (a = 1, f_sharp = 0, g = 1)
    # and SolverConfig those of the solver block
    absent = base_mapping()
    for block in ("operator", "source", "threshold", "solver"):
        del absent[block]
    cfg_absent = config_from_mapping(absent)
    cfg_empty = config_from_mapping(base_mapping(operator={}, source={}, threshold={}, solver={}))
    assert cfg_absent.solver == cfg_empty.solver == SolverConfig()
    for build in ("build_operator", "build_source", "build_threshold"):
        x, y = getattr(cfg_absent, build)(), getattr(cfg_empty, build)()
        for f in fields(x):
            assert np.array_equal(getattr(x, f.name), getattr(y, f.name)), (build, f.name)
    assert not np.any(cfg_absent.build_source().f_sharp)


def test_integrability_block_is_documentation_only(tmp_path):
    # no solver reads it; the raw config carries it into the manifest
    cfg = config_from_mapping(base_mapping(integrability={"p1": 4, "q1": 3}))
    run_solve(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["integrability"] == {"p1": 4, "q1": 3}


def test_run_solve_outputs_and_reproducibility(tmp_path):
    cfg = config_from_mapping(base_mapping())
    run_solve(cfg, tmp_path / "a")
    run_solve(cfg, tmp_path / "b")
    names = {p.name for p in (tmp_path / "a").iterdir()}
    assert {"manifest.json", "timings.json", "kkt.csv", "u.bin", "u.hdr", "lambda.bin", "psi.bin"} <= names
    # identical config + seed: bit-identical manifests and field dumps
    assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()
    assert (tmp_path / "a/u.bin").read_bytes() == (tmp_path / "b/u.bin").read_bytes()
    man = json.loads((tmp_path / "a/manifest.json").read_text())
    assert "timings.json" not in man["outputs"]
    assert man["outputs"]["u.bin"]


def test_run_solve_loads_no_scipy(tmp_path):
    # importing scipy.linalg alone adds ~28 MB and ~0.3 s to a process, so the
    # solve path stays numpy-only; checked in a fresh interpreter
    mapping = base_mapping()
    mapping["grid"] = {"dim": 2, "box_side": 4.0, "points_per_axis": 16, "omega": {"shape": "ball", "radius": 1.0}, "buffer": 0.5}
    code = (
        "import json, sys\n"
        "import fracmk\n"
        "from fracmk.runs import config_from_mapping, run_solve\n"
        f"run_solve(config_from_mapping(json.loads({json.dumps(mapping)!r})), {str(tmp_path / 'run')!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    src = str(Path(fracmk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []



def _fresh_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this fracmk."""
    src = str(Path(fracmk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True).stdout


def test_pdhg_solve_loads_no_scipy():
    # the oracles' setup (Cholesky factor, triangular inverse and, off the
    # trivial pencil, eigh) and the QP's inner matrices, from the penalty
    # path's kernel rows, use numpy alone, for the same memory reason as the
    # solve path
    out = _fresh_python(
        "import json, sys\n"
        "from fracmk import GridSpec, interval\n"
        "from fracmk.forms import constant_source, constant_threshold, isotropic_operator\n"
        "from fracmk.oracle import brute_force_qp, pdhg_solve\n"
        "g = GridSpec(dim=1, box_side=4.0, points_per_axis=64, omega=interval(1.0), buffer=0.6)\n"
        "args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 1.0)\n"
        "pdhg_solve(*args, max_iters=100)\n"
        "brute_force_qp(*args, max_outer=20)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert json.loads(out.splitlines()[-1]) == []


def test_run_solve_loads_no_numpy_random(tmp_path):
    # numpy.random adds ~2 MB to a process; the KKT battery draws from the
    # stdlib generator instead
    mapping = base_mapping()
    out = _fresh_python(
        "import json, sys\n"
        "from fracmk.runs import config_from_mapping, run_solve\n"
        f"run_solve(config_from_mapping(json.loads({json.dumps(mapping)!r})), {str(tmp_path / 'run')!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.random'))))\n"
    )
    assert (tmp_path / "run" / "kkt.csv").is_file()
    assert json.loads(out.splitlines()[-1]) == []


def test_runs_and_oracle_import_no_thread_pool():
    # the library runs one solve at a time: neither importing it nor a
    # localize sweep loads concurrent.futures, or logging through it
    mapping = base_mapping(s_list=[0.8, 1.0])
    out = _fresh_python(
        "import json, sys\n"
        "import fracmk.runs, fracmk.oracle\n"
        "from fracmk.runs import config_from_mapping, run_localize\n"
        f"run_localize(config_from_mapping(json.loads({json.dumps(mapping)!r})))\n"
        "print(json.dumps([m for m in ('concurrent.futures', 'logging') if m in sys.modules]))\n"
    )
    assert json.loads(out.splitlines()[-1]) == []


def test_kernel_verification_loads_no_scipy():
    # the library imports numpy only: the verify suite's kernel-norm check
    # integrates with numpy's Gauss-Legendre rule
    out = _fresh_python(
        "import json, sys\n"
        "from fracmk.runs import _verify_kernel_norms\n"
        "rows = []\n"
        "_verify_kernel_norms(rows)\n"
        "print(json.dumps([len(rows), all(r[-1] for r in rows)]))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    *_, checks, loaded = out.splitlines()
    assert json.loads(checks) == [18, True]
    assert json.loads(loaded) == []


def test_importing_the_cli_loads_no_numpy():
    # --threads sets the BLAS/FFT thread variables in main(); they only take
    # effect if numpy has not been loaded by then
    out = _fresh_python("import sys\nimport fracmk.cli\nprint('numpy' in sys.modules)\n")
    assert out.split() == ["False"]


# the package's exports, by the submodule that defines them
EXPORTS = {
    "grid": "DomainMask GridSpec OmegaShape ScalarField VectorField ball bump holder_seminorm interval lp_norm "
    "random_bumps rectangle write_field",
    "riesz": "adjointness_residual frac_divergence_spectral frac_gradient_direct frac_gradient_spectral "
    "gamma_coeff kernel_norm_ball kernel_norm_tail localization_error mu_coeff poincare_check riesz_convolve "
    "riesz_symbol sphere_area tail_decay_check",
    "forms": "CoercivityReport EmpiricalConstants OperatorData SourceData Threshold bilinear_apply "
    "coercivity_margin constant_source constant_threshold estimate_constants isotropic_operator linear_apply "
    "threshold_replace",
    "oracle": "AnalyticBenchmark analytic_mk_1d analytic_torsion_1d brute_force_qp pdhg_solve",
    "penalty": "KKTReport PenaltyFn Solution SolverConfig continuation_solve kkt_report solve_fixed_eps",
    "runs": "RunConfig config_from_mapping load_config run_dependence run_localize run_oracle run_solve run_verify",
}


def test_package_exports_resolve_to_their_submodule_objects():
    code = (
        "import importlib, json, sys\n"
        "import fracmk\n"
        "eager = 'numpy' in sys.modules\n"
        f"exports = {EXPORTS!r}\n"
        "same = {n: getattr(fracmk, n) is getattr(importlib.import_module('fracmk.' + m), n)\n"
        "        for m, names in exports.items() for n in names.split()}\n"
        "star = {}\n"
        "exec('from fracmk import *', star)\n"
        "print(json.dumps([eager, fracmk.__version__, same, sorted(k for k in star if not k.startswith('__'))]))\n"
    )
    eager, version, same, star = json.loads(_fresh_python(code).splitlines()[-1])
    names = sorted(n for names in EXPORTS.values() for n in names.split())
    assert not eager and version == fracmk.__version__
    assert sorted(same) == names and all(same.values())
    assert star == names == sorted(fracmk.__all__)
    assert set(names) <= set(dir(fracmk))
    with pytest.raises(AttributeError):
        fracmk.no_such_name


# the values a caller sets, in order, by the class or function that takes them,
# and the keys of each preset config block, sorted: a quantity the data
# already fix (a_star, g's bounds, q) is read off the data, and a stored copy
# of it would show up here
SETTABLE = {
    "OperatorData": "grid A b dvec c",
    "SourceData": "grid f_sharp f_vec",
    "Threshold": "grid g",
    "Solution": "u lam psi eps s converged iterations residual_norm notes",
    "SolverConfig": "eps_schedule newton_tol max_iters",
    "isotropic_operator": "grid a b dvec c",
    "operator keys": "a b c dvec",
    "source keys": "f_sharp f_vec",
    "threshold keys": "g k replace",
}


def test_settable_values_are_pinned():
    classes = (OperatorData, SourceData, Threshold, Solution, SolverConfig)
    found = {cls.__name__: [f.name for f in fields(cls) if f.init] for cls in classes}
    found["isotropic_operator"] = list(inspect.signature(isotropic_operator).parameters)
    found.update({f"{block} keys": sorted(keys) for block, keys in runs._PRESET_KEYS.items()})
    assert found == {name: values.split() for name, values in SETTABLE.items()}


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(opening: str) -> str:
    """The body of README's first fenced block that opens with `opening`."""
    text = README.read_text()
    start = text.index(opening + "\n") + len(opening) + 1
    return text[start : text.index("```", start)]


def test_readme_config_example_loads():
    # README's schema example, its // comments stripped, is a config that
    # loads as written, solver block included
    body = "\n".join(line.split("//")[0] for line in _readme_block("```jsonc").splitlines())
    cfg = config_from_mapping(json.loads(body))
    assert cfg.solver == SolverConfig(eps_schedule=(0.1, 0.03, 0.01, 3e-3, 1e-3))


def test_readme_commands_parse():
    lines = [line.split() for line in _readme_block("## Command line\n\n```").splitlines()]
    commands = [words[1] for words in lines if words and words[0] == "fracmk" and not words[1].startswith("[")]
    assert commands == ["solve", "localize", "depend", "oracle", "verify-kernels"]
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0, command


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_imports_resolve():
    # an export a demo imports must not vanish unseen
    assert DEMOS
    missing = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level or (node.module or "").split(".")[0] != "fracmk":
                continue
            for alias in node.names:
                if node.module == "fracmk":
                    found = alias.name in fracmk.__all__
                else:
                    found = hasattr(importlib.import_module(node.module), alias.name)
                if not found:
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_end_to_end(demo, tmp_path):
    # each demo exits 0 in a fresh interpreter (about 3.5 s for all five) and
    # writes nothing into its working directory
    src = str(Path(fracmk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []


def test_run_localize_builds_each_gradient_matrix_once():
    s_list = [0.5, 0.6, 0.7, 0.8, 0.9]
    cfg = config_from_mapping(base_mapping(s_list=s_list))
    omega_fft.cache_clear()
    run_localize(cfg)
    # every stage and cold-start step of a sweep point finds its operator
    # cached: one build per s, plus s = 1, and one operator held at the end
    assert omega_fft.cache_info().misses == len(s_list) + 1
    assert omega_fft.cache_info().currsize == 1


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_mapping()))
    cfg = load_config(path)
    assert cfg.s == 0.7


def test_weak_battery_shape():
    cfg = config_from_mapping(base_mapping())
    battery = weak_battery(cfg.grid)
    assert len(battery) >= 8
    mask = cfg.grid.masks().inside
    for phi in battery:
        assert not phi.values[~mask].any() or np.all(phi.values[~mask] == 0.0)


def test_run_localize_self_comparison_is_zero(tmp_path):
    cfg = config_from_mapping(base_mapping(s_list=[1.0]))
    rows = run_localize(cfg, tmp_path)
    assert len(rows) == 1
    assert rows[0]["sup_error"] == 0.0
    assert rows[0]["weak_lambda_error"] == 0.0
    assert (tmp_path / "localize.csv").exists()


def test_run_localize_errors_shrink_toward_one():
    cfg = config_from_mapping(base_mapping(s_list=[0.8, 0.95, 1.0]))
    rows = run_localize(cfg)
    assert rows[0]["sup_error"] > rows[1]["sup_error"] > 0
    assert rows[0]["weak_lambda_error"] > rows[1]["weak_lambda_error"]


def test_run_dependence_zero_shift_and_ratios(tmp_path):
    cfg = config_from_mapping(
        base_mapping(dependence={"source_shifts": [0.0, 0.1], "threshold_shifts": [0.1, 0.05], "tol": 1e-9})
    )
    rows = run_dependence(cfg, tmp_path)
    by_shift = {(r["kind"], r["shift"]): r for r in rows}
    assert by_shift[("source", 0.0)]["measured"] <= 1e-7  # f_hat = f
    assert by_shift[("source", 0.1)]["ratio"] <= 1.0
    assert by_shift[("threshold", 0.05)]["ratio"] <= 1.0
    assert (tmp_path / "dependence.csv").exists()


def test_run_dependence_factors_the_gram_once(monkeypatch):
    # six PDHG solves on one (grid, s) share the operator's factor of K^T K;
    # their rows equal those of solves that each factor it afresh
    cfg = config_from_mapping(
        base_mapping(dependence={"source_shifts": [0.0, 0.1, 0.2], "threshold_shifts": [0.1, 0.05], "tol": 1e-9})
    )
    factored = []
    cholesky = np.linalg.cholesky

    def counted(T):
        factored.append(T.shape)
        return cholesky(T)

    pdhg_solve = runs.pdhg_solve

    def afresh(*args, **kwargs):
        omega_fft.cache_clear()
        return pdhg_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(runs, "pdhg_solve", afresh)
    ref = run_dependence(cfg)
    assert len(factored) == 6
    monkeypatch.setattr(runs, "pdhg_solve", pdhg_solve)
    omega_fft.cache_clear()
    rows = run_dependence(cfg)
    assert len(factored) == 7
    assert rows == ref


def test_run_dependence_requires_coercive_operator():
    cfg = config_from_mapping(base_mapping(operator={"a": 0.0}))
    with pytest.raises(ValueError, match="requires a coercive operator"):
        run_dependence(cfg)


@pytest.mark.parametrize(
    "block",
    [
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": "abc"},
        {"source_shifts": 5},
        {"source_shifts": ["0.1"]},
        {"threshold_shifts": [float("inf")]},
        {"threshold_shifts": [0.1, float("nan")]},
    ],
    ids=repr,
)
def test_config_rejects_a_bad_dependence_block(block):
    # checked before any solve: at tol <= 0 the PDHG gap stop never fires,
    # and each of run_dependence's solves would run its whole budget
    with pytest.raises(ValueError, match=f"dependence {next(iter(block))} must"):
        config_from_mapping(base_mapping(dependence=block))


def test_run_verify_empty_selection(tmp_path):
    rows, ok = run_verify(outdir=tmp_path, selection=[])
    assert rows == [] and ok
    assert (tmp_path / "verify.csv").exists()


def test_verify_csv_numbers_parse_as_floats(tmp_path):
    # numpy scalars are float subclasses; their repr, np.float64(...), is
    # not a number a CSV reader can parse
    rows, _ = run_verify(outdir=tmp_path)
    with open(tmp_path / "verify.csv", newline="") as fh:
        measured = [float(r["measured"]) for r in csv.DictReader(fh)]
    assert measured == [float(r[2]) for r in rows]


def test_run_verify_rejects_unknown_check():
    with pytest.raises(ValueError):
        run_verify(selection=["spectral-unicorns"])


def test_cli_verify_rejects_a_typo_before_running_any_check(tmp_path, monkeypatch, capsys):
    from fracmk import runs

    called = []
    monkeypatch.setitem(runs._VERIFY_CHECKS, "kernels", called.append)
    assert main(["--output-root", str(tmp_path), "verify-kernels", "--select", "kernels,typo"]) == 2
    err = capsys.readouterr().err
    assert "typo" in err and len(err.strip().splitlines()) == 1
    assert called == []
    assert not list(tmp_path.iterdir())


def _shift_divergence_order(monkeypatch):
    """Inject the fault the adjointness check must catch: a divergence of
    order s + 1e-3, no longer the gradient's adjoint."""
    from fracmk import riesz

    div = riesz.frac_divergence_spectral
    monkeypatch.setattr(riesz, "frac_divergence_spectral", lambda xi, s: div(xi, s + 1e-3))


def test_run_verify_fault_injection_fails_adjointness(monkeypatch):
    _shift_divergence_order(monkeypatch)
    rows, ok = run_verify(selection=["adjointness"])
    assert not ok
    assert any(r[0] == "adjointness" and not r[4] for r in rows)


def test_rerun_from_manifest_reproduces_run(tmp_path):
    cfg = config_from_mapping(base_mapping())
    run_solve(cfg, tmp_path / "orig")
    manifest = json.loads((tmp_path / "orig/manifest.json").read_text())
    cfg2 = config_from_mapping(manifest["config"])
    run_solve(cfg2, tmp_path / "replay")
    for name in manifest["outputs"]:
        assert (tmp_path / "orig" / name).read_bytes() == (tmp_path / "replay" / name).read_bytes()


def test_run_oracle_outputs(tmp_path):
    cfg = config_from_mapping(
        base_mapping(
            grid={
                "dim": 1,
                "box_side": 4.0,
                "points_per_axis": 128,
                "omega": {"shape": "interval", "halfwidth": 1.0},
                "buffer": 0.6,
            },
            solver={"eps_schedule": [0.1, 0.03, 0.01, 3e-3, 1e-3]},
        )
    )
    results = run_oracle(cfg, tmp_path)
    assert results["torsion"]["sup_u"] <= 0.05
    assert results["mk"]["sup_u"] <= 0.05
    assert (tmp_path / "oracle.csv").exists()
    assert (tmp_path / "torsion_u_exact.bin").exists()


# -- CLI ---------------------------------------------------------------------------


def write_cfg(tmp_path, mapping=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(mapping or base_mapping()))
    return path


def test_cli_solve_creates_run_dir(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    rc = main(["--output-root", str(tmp_path / "runs"), "solve", "--config", str(cfgp)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solved s=0.7" in out
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1 and (run_dirs[0] / "manifest.json").exists()


def test_cli_seed_override_changes_manifest(tmp_path):
    cfgp = write_cfg(tmp_path)
    main(["--output-root", str(tmp_path / "r1"), "--run-name", "x", "solve", "--config", str(cfgp)])
    main(["--output-root", str(tmp_path / "r2"), "--run-name", "x", "--seed", "9", "solve", "--config", str(cfgp)])
    m1 = json.loads((tmp_path / "r1/x/manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2/x/manifest.json").read_text())
    assert m1["seed"] == 1 and m2["seed"] == 9


def test_cli_verify_kernels_selection_and_exit_codes(tmp_path, monkeypatch):
    ok = main(["--output-root", str(tmp_path / "v"), "verify-kernels", "--select", "kernels"])
    assert ok == 0
    with monkeypatch.context() as patch:
        _shift_divergence_order(patch)
        bad = main(["--output-root", str(tmp_path / "v2"), "verify-kernels", "--select", "adjointness"])
    assert bad == 1
    empty = main(["--output-root", str(tmp_path / "v3"), "verify-kernels", "--select", ""])
    assert empty == 0


def test_cli_verify_has_no_fault_injection_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--output-root", str(tmp_path), "verify-kernels", "--adjoint-s-offset", "1e-3"])
    assert exc.value.code == 2
    assert "--adjoint-s-offset" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_localize_and_depend(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, base_mapping(s_list=[0.9, 1.0]))
    rc = main(["--output-root", str(tmp_path / "runs"), "localize", "--config", str(cfgp)])
    assert rc == 0
    cfgp2 = write_cfg(tmp_path, base_mapping(dependence={"source_shifts": [0.1]}))
    rc2 = main(["--output-root", str(tmp_path / "runs"), "depend", "--config", str(cfgp2)])
    assert rc2 == 0
