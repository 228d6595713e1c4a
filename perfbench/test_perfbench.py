"""Tests of the benchmark itself: correctness gate, failure accounting, seeds
and span aggregation.  Kept out of the library's suite; run with

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


def test_seed_zero_gives_the_nominal_configs():
    assert worker.workload_mapping("solve-2d", 0)["source"]["f_sharp"] == 2.0
    assert worker.workload_mapping("transport-1d", 0)["source"]["f_sharp"] == 1.0
    assert worker.workload_mapping("oracle-pdhg", 0)["source"]["f_sharp"] == 2.0
    for name, (f0, _, _) in worker.WORKLOADS.items():
        draws = [worker.source_amplitude(name, seed) for seed in range(1, 20)]
        assert draws == [worker.source_amplitude(name, seed) for seed in range(1, 20)]
        assert all(abs(f / f0 - 1) <= worker.F_SPREAD for f in draws)
        assert len(set(draws)) == len(draws)


def test_nonconverging_solve_is_a_counted_failure(tmp_path):
    res = worker.request("transport-1d", 0, tmp_path / "r", solver_overrides={"max_iters": 1})
    assert any(f.startswith("RuntimeError") and "failed to converge" in f for f in res["failures"])
    assert "wall_s" not in res and not (tmp_path / "r").exists()


def test_uncertified_pdhg_gap_fails_the_gate(tmp_path):
    res = worker.request("oracle-pdhg", 0, tmp_path / "r", solver_overrides={"max_iters": 100})
    assert any("not certified" in f for f in res["failures"])
    assert res["wall_s"] > 0


class _ScriptedClient:
    """Replays the canned replies of one closed loop."""

    workload, seed = "transport-1d", 0

    def __init__(self, replies):
        self.replies = replies

    def session(self, seconds):
        return self.replies


def _ok(wall, sha="a"):
    return {"failures": [], "wall_s": wall, "peak_rss_mb": 50.0, "manifest_sha256": sha,
            "ref_error": 1e-3, "violation_sup": 1e-3, "complementarity": 1e-4}


def test_failures_are_counted_and_never_abort():
    replies = [_ok(1.0), {"failures": ["RuntimeError: boom"]}, _ok(2.0), _ok(9.0, sha="b")]
    setup = [{"failures": [], "setup_s": t} for t in (0.4, 0.3, 0.5)]
    results, summary = run.run_untraced(_ScriptedClient(replies), seconds=10, setup=setup)
    assert len(results) == 4
    assert [bool(r["failures"]) for r in results] == [False, True, False, True]
    assert "manifest differs" in results[3]["failures"][0]
    assert summary["metrics"]["wall_s"] == (1.5, "s")  # mean of the two that passed
    assert summary["metrics"]["setup_s"] == (0.4, "s")


def _fake_requests(duration):
    clock = [0.0]

    def do_request(i):
        clock[0] += duration
        return {"i": i}

    return do_request, lambda: clock[0]


def test_closed_loop_starts_a_request_only_if_half_of_it_fits():
    # 15 s requests in 40 s: half of the third fits, half of a fourth does not
    assert len(worker.closed_loop(*_fake_requests(15.0), seconds=40)) == 3
    # 17 s requests: the third would start at 34 s and pass 40 s by 8.5 s
    assert len(worker.closed_loop(*_fake_requests(17.0), seconds=40)) == 2
    assert len(worker.closed_loop(*_fake_requests(1.0), seconds=10)) == 10
    # the first request runs whatever its length
    assert len(worker.closed_loop(*_fake_requests(50.0), seconds=40)) == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)


def test_spans_cover_the_cold_start_chain_and_self_times_add_up():
    import fracmk
    from fracmk import GridSpec, SolverConfig, constant_source, constant_threshold, interval, isotropic_operator, penalty

    grid = GridSpec(dim=1, box_side=4.0, points_per_axis=64, omega=interval(1.0), buffer=0.6)
    args = (isotropic_operator(grid, a=1.0), constant_source(grid, 2.0), constant_threshold(grid, 1.0), 1.0)
    original = penalty.solve_fixed_eps
    with Tracer() as tracer:
        stages = fracmk.continuation_solve(*args, SolverConfig(eps_schedule=(0.1, 3e-3)))
    assert penalty.solve_fixed_eps is fracmk.solve_fixed_eps is original
    assert fracmk.continuation_solve is penalty.continuation_solve

    m = layer_metrics(tracer.spans)
    # warm-started stages walk no internal eps chain
    assert m["penalty.stage_calls"] == 2
    assert m["penalty.newton_iters"] == sum(sol.iterations for _, sol, _ in stages)
    assert m["penalty.newton_iters.stage1"] == stages[0][1].iterations
    assert m["penalty.linsolve_calls"] == m["penalty.newton_iters"]
    assert m["penalty.kkt_s"] >= m["penalty.kkt_self_s"] > 0
    top = tracer.spans[0]
    assert top.name == "penalty.continuation_solve"
    assert sum(self_times(tracer.spans)) == pytest.approx(top.end - top.start, rel=1e-9)

    with Tracer() as tracer:
        penalty.solve_fixed_eps(*args, SolverConfig(eps=3e-3))  # cold start walks 0.1, 0.025, 6.25e-3, 3e-3
    m = layer_metrics(tracer.spans)
    assert m["penalty.stage_calls"] == 4
    assert m["penalty.newton_iters.stage1"] == m["penalty.newton_iters"] > 0
