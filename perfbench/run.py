"""Layered benchmark of fracmk: time-to-solution on three workloads.

    python3 perfbench/run.py --workload solve-2d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Each workload is a closed loop with one client in one process: a worker
process (``worker.py``) issues one request at a time, and the next starts
when the previous one returns.  Its BLAS thread count is pinned to nproc
in its environment before numpy loads.  After an untimed warm-up
request it runs requests for ``--seconds``; each sets up the problem, times
the workload's entry call and checks the result.  A request that raises or
fails a check counts as failed; it never stops the benchmark.  ``setup_s``
comes from separate fresh processes that only set up.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the workload runs three times, each
in a fresh process -- untraced, traced, and untraced at one BLAS thread --
and the JSON object holds the per-layer
metrics of the traced request; its spans are written under ``.perfbench/``.
Human-readable lines precede the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5  # set-up-only fresh processes per run; setup_s is their median
RUN_LIMIT_S = 170.0  # no request outlives this, so a run exits within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Client:
    """Issues requests one at a time and keeps every result."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self._count = 0

    def _spawn(self, threads: int, *flags: str) -> tuple[dict | None, str]:
        """Runs one worker process; returns its JSON reply, or None and why."""
        env = dict(os.environ, **{v: str(threads) for v in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self._count += 1
        outdir = OUT / f"request-{os.getpid()}-{self._count}"
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            return None, "run time limit reached"
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed),
               "--outdir", str(outdir), "--spawned-at", repr(spawned_at), *flags]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return json.loads(lines[-1]), ""

    def request(self, threads: int | None = None, trace: bool = False, setup_only: bool = False) -> dict:
        """One request in a fresh process."""
        threads = threads or self.nproc
        res, why = self._spawn(threads, *["--trace"] * trace, *["--setup-only"] * setup_only)
        if res is None:
            return {"failures": [why]}
        res["threads"] = threads
        return res

    def session(self, seconds: float) -> list[dict]:
        """The closed loop, in one process; one result per request."""
        reply, why = self._spawn(self.nproc, "--seconds", repr(seconds))
        return [{"failures": [why]}] if reply is None else reply["requests"]


def check_manifests(results: list[dict]) -> None:
    """Repetitions of one seed must write byte-identical manifests (criterion 12)."""
    first = next((r["manifest_sha256"] for r in results if "manifest_sha256" in r), None)
    for r in results:
        if r.get("manifest_sha256", first) != first:
            r["failures"].append("manifest differs from the first repetition of this seed")


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile at or above the median with at least ten samples beyond it."""
    n = len(samples)
    k = n - 11  # index of the highest order statistic with ten above it
    if k + 1 < n / 2:
        return None
    return 100.0 * (k + 1) / n, sorted(samples)[k]


def run_untraced(client: Client, seconds: float, setup: list[dict]) -> tuple[list[dict], dict]:
    results = client.session(seconds)
    check_manifests(results)
    ok = [r for r in results if not r["failures"]]
    if not ok:
        return results, {}
    setup_s = [r["setup_s"] for r in setup if "setup_s" in r]
    wall = [r["wall_s"] for r in ok]
    # wall_s is the mean, not the median: the host's speed flips between two
    # levels ~1.7x apart in phases of seconds, so a short request's time is
    # bimodal, and the median jumps between the modes from run to run, while
    # the mean moves only with the share of the run spent slow.
    metrics = {
        "wall_s": (statistics.fmean(wall), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        # after the first request: later ones add the allocator's drift over a long-lived process
        "peak_rss_mb": (ok[0]["peak_rss_mb"], "MB"),
    }
    notes = {"wall_s": f"mean of {len(wall)}, median {statistics.median(wall):.4g} s, min {min(wall):.4g} s, "
                       f"max {max(wall):.4g} s", "setup_s": f"median of {len(setup_s)}"}
    tail = tail_percentile(wall)
    notes["wall_s"] += f", p{tail[0]:.0f} {tail[1]:.4g} s" if tail else ", too few samples for a tail percentile"
    # accuracy is deterministic per seed; every request was checked against its bound
    checks = {k: ok[0][k] for k in ("ref_error", "violation_sup", "complementarity") if k in ok[0]}
    return results, {"metrics": metrics, "notes": notes, "checks": checks}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("penalty.G_bytes", "penalty.J_bytes"):
        return "bytes_computed"  # from array shapes, not measured
    return "bytes" if name == "runs.bytes_written" else "count"


def run_traced(client: Client) -> tuple[list[dict], dict]:
    untraced = client.request()
    traced = client.request(trace=True)
    single = client.request(threads=1)
    results = [untraced, traced, single]
    check_manifests([untraced, traced])  # one BLAS thread may round differently
    if any(r["failures"] for r in results):
        return results, {}
    layers = dict(traced["layers"])
    layers["runs.bytes_written"] = traced.get("bytes_written", 0)  # run_solve workloads only
    layers["workload.untraced_wall_s"] = untraced["wall_s"]
    layers["workload.traced_wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    layers["workload.threads1_wall_s"] = single["wall_s"]
    print(f"  spans: {traced['spans_file']}")
    metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    out_file = OUT / f"layers-{client.workload}-seed{client.seed}.json"
    out_file.write_text(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, indent=1) + "\n")
    return results, {"metrics": metrics, "notes": {}, "checks": {}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    client = Client(name, seed)
    setup = [client.request(setup_only=True) for _ in range(SETUP_PROBES)]
    probe = next((r for r in setup if "env" in r), None)
    if probe is None:
        print(f"{name}: set-up failed: {setup[0]['failures']}", file=sys.stderr)
        return None
    print("env " + " ".join(f"{k}={v}" for k, v in probe["env"].items()))
    print(f"{name} seed={seed} f={probe['f']!r} trace={int(trace)}")
    results, summary = run_traced(client) if trace else run_untraced(client, seconds, setup)
    failed = sum(1 for r in results if r["failures"])
    print(f"  attempted = {len(results)} count, failed = {failed} count, failure_rate = {failed / len(results):.4g} ratio")
    for r in results:
        for why in r["failures"]:
            print(f"  FAILED: {why}")
    if not summary:
        return None
    for k, (v, unit) in summary["metrics"].items():
        note = summary["notes"].get(k)
        print(f"  {k} = {v:.6g} {unit}" + (f" ({note})" if note else ""))
    for k, v in summary["checks"].items():
        print(f"  {k} = {v:.6g} (dimensionless; checked)")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *worker.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fracmk" / "__init__.py").is_file():
        print(f"no fracmk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if None in results.values():
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
