"""Benchmark requests, run in a process of their own.

A request sets up one workload, times its entry call, and checks the result.
The process serves either one request (``--setup-only`` or ``--trace``), or,
with ``--seconds S``, a closed loop: one untimed warm-up request, then one
request after another until S seconds have passed.

Run by ``run.py`` with the BLAS thread variables already in the environment,
so they take effect before numpy loads.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload solve-2d --seed 0 --spawned-at <time.monotonic()> --outdir DIR
        [--trace | --setup-only | --seconds S]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SCHEDULE = [0.1, 0.03, 0.01, 3e-3, 1e-3]
REF_BOUND = 1e-2  # closed-form sup-error bound, acceptance criterion 7
F_SPREAD = 0.02  # relative half-width of the seeded source-amplitude draw
# The warm-up request loads lazy imports and code paths and first-touches the
# allocator, at a fraction of a full solve's cost: one Newton iteration (it
# then fails, and is discarded), or 50 PDHG iterations.
WARMUP = {"run_solve": {"max_iters": 1}, "pdhg": {"max_iters": 50}}


def _grid(dim, n, omega, buffer):
    return {"dim": dim, "box_side": 4.0, "points_per_axis": n, "omega": omega, "buffer": buffer}


# name -> (nominal f, config mapping builder, entry kind)
WORKLOADS = {
    "solve-2d": (2.0, lambda f: {
        "grid": _grid(2, 64, {"shape": "ball", "radius": 1.0}, 0.5),
        "s": 0.7,
        "operator": {"a": 1.0},
        "source": {"f_sharp": f},
        "threshold": {"g": 1.0},
        "solver": {"eps_schedule": SCHEDULE},
    }, "run_solve"),
    "transport-1d": (1.0, lambda f: {
        "grid": _grid(1, 1024, {"shape": "interval", "halfwidth": 1.0}, 0.6),
        "s": 1.0,
        "operator": {"a": 0.0},
        "source": {"f_sharp": f},
        "threshold": {"g": 1.0},
        "solver": {"eps_schedule": SCHEDULE, "max_iters": 200},
    }, "run_solve"),
    "oracle-pdhg": (2.0, lambda f: {
        "grid": _grid(1, 512, {"shape": "interval", "halfwidth": 1.0}, 0.6),
        "s": 1.0,
        "operator": {"a": 1.0},
        "source": {"f_sharp": f},
        "threshold": {"g": 1.0},
    }, "pdhg"),
}


def source_amplitude(name: str, seed: int) -> float:
    """Seed 0 gives the nominal f; other seeds draw within +-F_SPREAD of it."""
    f0 = WORKLOADS[name][0]
    if seed == 0:
        return f0
    return f0 * (1.0 + F_SPREAD * random.Random(seed).uniform(-1.0, 1.0))


def workload_mapping(name: str, seed: int, solver_overrides: dict | None = None) -> dict:
    mapping = WORKLOADS[name][1](source_amplitude(name, seed))
    if solver_overrides:
        mapping["solver"] = {**mapping.get("solver", {}), **solver_overrides}
    return mapping


def import_fracmk():
    """Import fracmk from this checkout's sources, never from elsewhere."""
    import fracmk

    src = (ROOT / "src").resolve()
    if src not in Path(fracmk.__file__).resolve().parents:
        raise ImportError(f"fracmk imported from {fracmk.__file__}, not from {src}")
    return fracmk


def environment() -> dict:
    import numpy as np
    from importlib.metadata import version

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _sup_error(u, bench) -> float:
    import numpy as np

    return float(np.max(np.abs(u.values - bench.sample(u.grid)[0].values)))


def check_penalty(stages, name: str, f: float) -> tuple[dict, list[str]]:
    """Acceptance criteria 7 and 8 on a continuation result."""
    import numpy as np
    from fracmk.oracle import analytic_mk_1d

    failures = [f"stage eps={e:g} not converged" for e, sol, _ in stages if not sol.converged]
    eps, sol, rep = stages[-1]
    if not rep.violation_sup <= math.sqrt(eps) + eps:
        failures.append(f"final violation_sup {rep.violation_sup:.3e} > sqrt(eps)+eps")
    if any(float(np.min(s.lam.values)) < 0.0 for _, s, _ in stages):
        failures.append("negative multiplier")
    out = {"violation_sup": rep.violation_sup, "complementarity": abs(rep.complementarity)}
    if name == "transport-1d":
        out["ref_error"] = _sup_error(sol.u, analytic_mk_1d(f))
    return out, failures


def check_pdhg(sol, f: float) -> tuple[dict, list[str]]:
    """Certified-gap convergence and acceptance criterion 7."""
    from fracmk.oracle import analytic_torsion_1d

    failures = [] if sol.converged else [f"duality gap {sol.residual_norm:.3e} not certified"]
    return {"ref_error": _sup_error(sol.u, analytic_torsion_1d(1.0, f)), "gap": sol.residual_norm}, failures


def request(name: str, seed: int, outdir: Path, spawned_at: float | None = None, trace: bool = False,
            setup_only: bool = False, solver_overrides: dict | None = None) -> dict:
    """Set up, time the entry call, check it.  Exceptions become failures."""
    res: dict = {"workload": name, "seed": seed, "failures": []}
    try:
        import_fracmk()
        from fracmk import oracle, runs

        f = source_amplitude(name, seed)
        cfg = runs.config_from_mapping(workload_mapping(name, seed, solver_overrides))
        kind = WORKLOADS[name][2]
        if kind == "pdhg":
            problem = (cfg.build_operator(), cfg.build_source(), cfg.build_threshold())
        if spawned_at is not None:
            res["setup_s"] = time.monotonic() - spawned_at
        res["f"] = f
        if setup_only:
            res["env"] = environment()
            return res

        with Tracer() if trace else contextlib.nullcontext() as tracer:
            t0 = time.perf_counter()
            if kind == "pdhg":
                out = oracle.pdhg_solve(*problem, cfg.s, tol=1e-8, **(solver_overrides or {}))
            else:
                out = runs.run_solve(cfg, outdir)
            res["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            res["layers"] = _layers(tracer, cfg)
            spans_file = outdir.parent / f"spans-{name}-seed{seed}.json"
            spans_file.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": tracer.dump()}))
            res["spans_file"] = str(spans_file)

        if kind == "pdhg":
            metrics, failures = check_pdhg(out, f)
        else:
            metrics, failures = check_penalty(out, name, f)
            res["manifest_sha256"] = hashlib.sha256((outdir / "manifest.json").read_bytes()).hexdigest()
            res["bytes_written"] = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        if metrics.get("ref_error", 0.0) > REF_BOUND:
            failures.append(f"ref_error {metrics['ref_error']:.3e} > {REF_BOUND:g}")
        res.update(metrics)
        res["failures"] += failures
    except Exception as exc:  # a failed request is counted, never fatal to the benchmark
        res["failures"].append(f"{type(exc).__name__}: {exc}")
        res["traceback"] = traceback.format_exc()
    finally:
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shutil.rmtree(outdir, ignore_errors=True)
    return res


def closed_loop(do_request, clock=time.monotonic, *, seconds: float) -> list[dict]:
    """Requests one after another for about `seconds`.  Another request starts
    only if at least half of it, by the median request so far, would run before
    the time is up: a run of 15 s requests then neither overruns by a whole
    request nor leaves a third of the time unused."""
    results, took = [], []
    deadline = clock() + seconds
    while True:
        t0 = clock()
        results.append(do_request(len(results)))
        took.append(clock() - t0)
        if clock() + statistics.median(took) / 2 > deadline:
            return results


def session(name: str, seed: int, outdir: Path, seconds: float) -> dict:
    """A warm-up request, then the closed loop; every request is checked."""
    request(name, seed, outdir / "warmup", solver_overrides=WARMUP[WORKLOADS[name][2]])

    def fresh_request(i):
        # Frees the reference cycles a previous request left, such as an
        # exception's frames holding its arrays, so that neither the peak
        # memory nor the timed call depends on when the collector last ran.
        gc.collect()
        return request(name, seed, outdir / f"r{i}")

    results = closed_loop(fresh_request, seconds=seconds)
    shutil.rmtree(outdir, ignore_errors=True)
    return {"requests": results}


def _layers(tracer, cfg) -> dict:
    """Per-layer metrics of one traced request, plus the computed array sizes."""
    out = layer_metrics(tracer.spans)
    grid = cfg.grid
    m = int(grid.masks().inside.sum())
    out["penalty.G_bytes"] = 8 * grid.dim * grid.points_per_axis**grid.dim * m
    out["penalty.J_bytes"] = 8 * m * m
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0, help="run a closed loop for this long")
    args = ap.parse_args(argv)
    if args.seconds > 0:
        res = session(args.workload, args.seed, Path(args.outdir), args.seconds)
    else:
        res = request(args.workload, args.seed, Path(args.outdir), args.spawned_at, args.trace, args.setup_only)
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
