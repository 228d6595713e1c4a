"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -v tests/test_acceptance.py`
(or `-s` to see the lines inline).  Criteria and tolerances are pinned here,
not configurable.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fracmk import (
    GridSpec,
    ScalarField,
    VectorField,
    adjointness_residual,
    ball,
    bump,
    frac_gradient_direct,
    frac_gradient_spectral,
    gamma_coeff,
    interval,
    kernel_norm_ball,
    kernel_norm_tail,
    localization_error,
    lp_norm,
    mu_coeff,
    sphere_area,
    tail_decay_check,
)
from fracmk.forms import OperatorData, constant_source, constant_threshold, isotropic_operator
from fracmk.oracle import analytic_mk_1d, analytic_torsion_1d, brute_force_qp, pdhg_solve
from fracmk.penalty import SolverConfig, continuation_solve
from fracmk.runs import (
    config_from_mapping,
    run_dependence,
    run_solve,
    run_verify,
    weak_battery,
    _weak_lambda_error,
)

SCHEDULE = (0.1, 0.03, 0.01, 3e-3, 1e-3)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def grid_1d(n, L=4.0, buffer=0.6):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=buffer)


def torsion_problem(n, f=2.0, a=1.0, L=4.0):
    g = grid_1d(n, L=L)
    return g, isotropic_operator(g, a=a), constant_source(g, f), constant_threshold(g, 1.0)


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_criterion_01_kernel_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    ball_grid = [(1, 0.2, 0.7), (1, 0.5, 1.0), (1, 0.8, 1.5), (2, 0.2, 1.0), (2, 0.5, 0.7), (2, 0.8, 2.0)]
    for d, alpha, R in ball_grid:
        oracle = quad(lambda r: sphere_area(d) * gamma_coeff(d, alpha) * r ** (alpha - 1), 0, R)[0]
        worst = max(worst, abs(kernel_norm_ball(d, alpha, R) - oracle) / oracle)
    tail_grid = [(1, 0.25, 2.0, 1.0), (1, 0.3, 2.5, 1.5), (1, 0.4, 2.0, 0.7),
                 (2, 0.5, 3.0, 1.0), (2, 0.2, 2.0, 1.5), (2, 0.6, 2.5, 1.0)]
    for d, alpha, p, R in tail_grid:
        pp = p / (p - 1)
        oracle = quad(
            lambda r: sphere_area(d) * (gamma_coeff(d, alpha) * r ** (alpha - d)) ** pp * r ** (d - 1),
            R,
            np.inf,
        )[0] ** (1 / pp)
        worst = max(worst, abs(kernel_norm_tail(d, alpha, p, R) - oracle) / oracle)
    alphas = (0.4, 0.2, 0.1, 0.05)
    balls = [kernel_norm_ball(1, a, 1.0) for a in alphas]
    tails = [kernel_norm_tail(1, a, 2.0, 1.0) for a in alphas]
    mono = all(x > y > 1.0 for x, y in zip(balls, balls[1:])) and all(
        x > y > 0.0 for x, y in zip(tails, tails[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and mono and elapsed < 10
    report(1, ok, f"kernel closed forms: worst rel err {worst:.2e} (<=1e-6), limits monotone={mono}, {elapsed:.1f}s (<10s)")


def test_criterion_02_adjointness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim, n in ((1, 1024), (2, 128)):
        omega = interval(1.0) if dim == 1 else ball(1.0)
        g = GridSpec(dim=dim, box_side=8.0, points_per_axis=n, omega=omega, buffer=1.0)
        for _ in range(100):
            u = ScalarField(g, rng.normal(size=g.shape))
            xi = VectorField(g, rng.normal(size=(dim,) + g.shape))
            worst = max(worst, adjointness_residual(u, xi, rng.uniform(0.2, 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30
    report(2, ok, f"adjointness: worst relative residual {worst:.2e} (<=1e-12), {elapsed:.1f}s (<30s)")


def test_criterion_03_two_path_gradient():
    t0 = time.perf_counter()
    g = GridSpec(dim=1, box_side=4.0, points_per_axis=256, omega=interval(1.0), buffer=0.75)
    u = bump(g)
    mask = g.masks().buffer_inside
    worst = 0.0
    for s in (0.3, 0.5, 0.7, 0.9):
        spec = frac_gradient_spectral(u, s).values[0][mask]
        direct = frac_gradient_direct(u, s, eval_mask=mask, periodic=True).values[0][mask]
        worst = max(worst, float(np.linalg.norm(spec - direct) / np.linalg.norm(spec)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60
    report(3, ok, f"two-path gradient: worst rel L2(Omega_R) {worst:.2e} (<=1e-3), {elapsed:.1f}s (<1min)")


def test_criterion_04_operator_localization():
    t0 = time.perf_counter()
    g = GridSpec(dim=1, box_side=8.0, points_per_axis=512, omega=interval(1.0), buffer=1.0)
    errs = localization_error(bump(g), [0.7, 0.9, 0.99])
    elapsed = time.perf_counter() - t0
    ok = bool(errs[0] > errs[1] > errs[2] and errs[2] <= 5e-2 and elapsed < 60)
    report(4, ok, f"operator localization: errors {np.round(errs, 4).tolist()} strictly decreasing, last<=5e-2, {elapsed:.1f}s")


def test_criterion_05_tail_decay_and_far_field():
    t0 = time.perf_counter()
    g = GridSpec(dim=1, box_side=8.0, points_per_axis=256, omega=interval(1.0), buffer=1.0)
    u = bump(g)
    ratios = []
    for p in (1.0, 2.0):
        res = tail_decay_check(u, 0.7, p, [1.0, 1.5, 2.0])
        ratios.extend(res["ratio"])
    dist = g.omega_distance()
    outside = dist > 0
    l1 = g.cell_volume * float(np.sum(np.abs(u.values)))
    far = 0.0
    for s in (0.3, 0.7):
        mag = frac_gradient_direct(u, s, eval_mask=outside).magnitude()[outside]
        far = max(far, float(np.max(mag * dist[outside] ** (1 + s) / (mu_coeff(1, s) * l1))))
    elapsed = time.perf_counter() - t0
    ok = max(ratios) <= 1.0 and far <= 1.0 and elapsed < 60
    report(5, ok, f"tail decay: max tail ratio {max(ratios):.3f} (<=1), far-field ratio {far:.3f} (<=1), {elapsed:.1f}s")


def test_criterion_06_oracle_triangle():
    t0 = time.perf_counter()
    worst = {}
    # the 2D disc rows check the oracles with two components of D^s, the
    # second with A = diag(2, 0.5)
    g2 = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    disc = (g2, isotropic_operator(g2, a=1.0), constant_source(g2, 2.0), constant_threshold(g2, 1.0))
    A = np.zeros((2, 2) + g2.shape)
    A[0, 0], A[1, 1] = 2.0, 0.5
    zero_v = np.zeros((2,) + g2.shape)
    aniso = (g2, OperatorData(g2, A, zero_v, zero_v, np.zeros(g2.shape))) + disc[2:]
    rows = (
        ("s=1", 1.0, torsion_problem(256)),
        ("s=0.7", 0.7, torsion_problem(128)),
        ("2D n=32 s=0.7", 0.7, disc),
        ("2D n=32 s=0.7 A=diag(2,0.5)", 0.7, aniso),
    )
    for key, s, (g, op, src, thr) in rows:
        pen = continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=SCHEDULE))[-1][1]
        pd = pdhg_solve(op, src, thr, s, tol=1e-8)
        qp = brute_force_qp(op, src, thr, s, tol=1e-8)
        worst[key] = max(
            rel_l2(pen.u.values, pd.u.values),
            rel_l2(pen.u.values, qp.u.values),
            rel_l2(pd.u.values, qp.u.values),
        )
    elapsed = time.perf_counter() - t0
    ok = all(w <= 1e-3 for w in worst.values()) and elapsed < 300
    detail = ", ".join(f"{key}: {w:.2e}" for key, w in worst.items())
    report(6, ok, f"oracle triangle: pairwise rel L2 {detail} (<=1e-3), {elapsed:.0f}s (<5min)")


def test_criterion_07_analytic_benchmarks():
    t0 = time.perf_counter()
    # torsion, f = 2 a0
    g, op, src, thr = torsion_problem(512)
    sol_t = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE))[-1][1]
    u_ex = analytic_torsion_1d(1.0, 2.0).sample(g)[0]
    sup_t = float(np.max(np.abs(sol_t.u.values - u_ex.values)))

    # transport benchmark, degenerate operator
    op_mk = isotropic_operator(g, a=0.0)
    src_mk = constant_source(g, 1.0)
    sol_m = continuation_solve(op_mk, src_mk, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE, max_iters=200))[-1][1]
    bench = analytic_mk_1d(1.0)
    u_mk, lam_mk = bench.sample(g)
    sup_m = float(np.max(np.abs(sol_m.u.values - u_mk.values)))
    weak = _weak_lambda_error(sol_m.lam.values, lam_mk.values, g, weak_battery(g))
    elapsed = time.perf_counter() - t0
    ok = sup_t <= 1e-2 and sup_m <= 1e-2 and weak <= 1e-2 and elapsed < 300
    report(7, ok, f"analytic benchmarks: torsion sup {sup_t:.2e}, transport sup {sup_m:.2e}, weak-lambda {weak:.2e} (<=1e-2), {elapsed:.0f}s")


def _torsion_stages(n=256):
    g, op, src, thr = torsion_problem(n)
    stages = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE))
    return g, thr, stages


def test_criterion_08_kkt_complementarity():
    t0 = time.perf_counter()
    g, thr, stages = _torsion_stages()
    viol = [rep.violation_sup for _, _, rep in stages]
    comp = [abs(rep.complementarity) for _, _, rep in stages]
    strictly_down = all(a > b for a, b in zip(viol, viol[1:])) and all(
        a > b for a, b in zip(comp, comp[1:])
    )
    lam_nonneg = all(sol.lam.values.min() >= 0.0 for _, sol, _ in stages)
    sol = stages[-1][1]
    du = frac_gradient_spectral(sol.u, 1.0).magnitude()
    ratio = float(np.sum(sol.lam.values * du**2) / np.sum(sol.lam.values * thr.g**2))
    elapsed = time.perf_counter() - t0
    ok = (
        strictly_down
        and viol[-1] <= np.sqrt(1e-3) + 1e-3
        and lam_nonneg
        and 0.99 <= ratio <= 1.01
        and elapsed < 300
    )
    report(8, ok, f"KKT: violation/complementarity strictly down={strictly_down}, final violation {viol[-1]:.2e} (<=3.26e-2), lambda>=0={lam_nonneg}, energy ratio {ratio:.4f} in [0.99,1.01], {elapsed:.0f}s")


def test_criterion_09_a_priori_stability():
    _, _, stages = _torsion_stages()
    dsu = [rep.dsu_lr for _, _, rep in stages[1:]]
    kl1 = [rep.k_l1 for _, _, rep in stages[1:]]
    ok = max(dsu) / min(dsu) <= 2.0 and max(kl1) / min(kl1) <= 2.0
    report(9, ok, f"a-priori stability: ||D^s u||_r spread {max(dsu)/min(dsu):.3f}, ||lambda||_1 spread {max(kl1)/min(kl1):.3f} (<=2 after first stage)")


def test_criterion_10_continuous_dependence():
    t0 = time.perf_counter()
    cfg = config_from_mapping(
        {
            "grid": {"dim": 1, "box_side": 4.0, "points_per_axis": 128,
                     "omega": {"shape": "interval", "halfwidth": 1.0}, "buffer": 0.6},
            "s": 0.7,
            "operator": {"a": 1.0},
            "source": {"f_sharp": 2.0},
            "threshold": {"g": 1.0},
            "dependence": {"source_shifts": [0.1, 0.05, 0.2], "threshold_shifts": [0.1, 0.05]},
        }
    )
    rows = run_dependence(cfg)
    checked = [r for r in rows if not r.get("calibration")]
    n_source = sum(1 for r in checked if r["kind"] == "source")
    n_thresh = sum(1 for r in checked if r["kind"] == "threshold")
    worst = max(r["ratio"] for r in checked)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and n_source == 3 and n_thresh >= 1 and elapsed < 300
    report(10, ok, f"continuous dependence: {n_source} source + {n_thresh} threshold perturbations, worst ratio {worst:.3f} (<=1), {elapsed:.0f}s")


def test_criterion_11_solution_localization():
    t0 = time.perf_counter()
    g, op, src, thr = torsion_problem(256)
    cfg = SolverConfig(eps_schedule=SCHEDULE)
    sol_1 = continuation_solve(op, src, thr, 1.0, cfg)[-1][1]
    battery = weak_battery(g)
    sups, weaks = [], []
    for s in (0.7, 0.8, 0.9, 0.95, 0.99):
        sol = continuation_solve(op, src, thr, s, cfg)[-1][1]
        sups.append(float(np.max(np.abs(sol.u.values - sol_1.u.values))))
        weaks.append(_weak_lambda_error(sol.lam.values, sol_1.lam.values, g, battery))
    sup_down = all(a > b for a, b in zip(sups, sups[1:]))
    weak_down = all(a > b for a, b in zip(weaks, weaks[1:]))
    elapsed = time.perf_counter() - t0
    ok = sup_down and weak_down and elapsed < 600
    report(11, ok, f"solution localization: sup errors {np.round(sups,4).tolist()} decreasing={sup_down}, weak-lambda {np.round(weaks,4).tolist()} decreasing={weak_down}, {elapsed:.0f}s (<10min)")


def test_criterion_12_determinism(tmp_path):
    mapping = {
        "grid": {"dim": 1, "box_side": 4.0, "points_per_axis": 128,
                 "omega": {"shape": "interval", "halfwidth": 1.0}, "buffer": 0.6},
        "s": 0.7,
        "operator": {"a": 1.0},
        "source": {"f_sharp": 2.0},
        "threshold": {"g": 1.0},
        "solver": {"eps_schedule": [0.1, 0.03, 0.01]},
        "seed": 5,
    }
    cfg = config_from_mapping(mapping)
    run_solve(cfg, tmp_path / "r1")
    run_solve(cfg, tmp_path / "r2")
    same_solve = (tmp_path / "r1/manifest.json").read_bytes() == (tmp_path / "r2/manifest.json").read_bytes()
    run_verify(outdir=tmp_path / "v1", seed=5)
    run_verify(outdir=tmp_path / "v2", seed=5)
    same_verify = (
        (tmp_path / "v1/manifest.json").read_bytes() == (tmp_path / "v2/manifest.json").read_bytes()
        and (tmp_path / "v1/verify.csv").read_bytes() == (tmp_path / "v2/verify.csv").read_bytes()
    )
    dumps_match = all(
        (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()
        for f in ("u.bin", "lambda.bin", "psi.bin", "kkt.csv")
    )
    ok = same_solve and same_verify and dumps_match
    report(12, ok, f"determinism: solve manifests identical={same_solve}, verify outputs identical={same_verify}, field dumps identical={dumps_match}")
