"""Penalty function, penalized residual, Newton solves and KKT diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from fracmk import (
    GridSpec,
    ScalarField,
    ball,
    frac_gradient_spectral,
    interval,
    lp_norm,
    rectangle,
)
from fracmk.forms import (
    OperatorData,
    constant_source,
    constant_threshold,
    isotropic_operator,
    threshold_replace,
)
from fracmk.penalty import (
    PenaltyFn,
    _gradient_matrix,
    _LaggedInverse,
    _omega_fft,
    _PenaltyProblem,
    _run_newton,
    SolverConfig,
    Solution,
    continuation_solve,
    discrete_energy,
    default_q,
    kkt_report,
    penalized_residual,
    penalty_value,
    solve_fixed_eps,
)

SCHEDULE = (0.1, 0.03, 0.01, 3e-3, 1e-3)


def grid_1d(n=128, L=4.0):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=0.6)


def torsion_setup(n=128, f=2.0, a=1.0):
    g = grid_1d(n)
    return g, isotropic_operator(g, a=a), constant_source(g, f), constant_threshold(g, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=1.5)
    with pytest.raises(ValueError):
        SolverConfig(q=2.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_schedule=(0.1, 0.2))  # not decreasing
    cfg = SolverConfig(eps_schedule=[0.1, 0.01])
    assert cfg.eps_schedule == (0.1, 0.01)


def test_default_q_exceeds_threshold():
    for d in (1, 2):
        for s in (0.3, 0.5, 0.7, 1.0):
            assert default_q(d, s) > 1 + d / s
            assert default_q(d, s) > 2


def test_penalty_branches():
    eps = 0.3
    k, kp = penalty_value(eps, -1.0)
    assert k == 0.0 and kp == 0.0
    # continuity at the saturation knee t = 1/eps
    below = penalty_value(eps, 1 / eps - 1e-12)[0]
    at = penalty_value(eps, 1 / eps)[0]
    above = penalty_value(eps, 1 / eps + 5.0)[0]
    sat = np.expm1(1 / eps**2)
    assert at == pytest.approx(sat, rel=1e-12)
    assert above == pytest.approx(sat, rel=1e-12)
    assert below == pytest.approx(sat, rel=1e-6)
    # midbranch derivative
    t = 0.7
    assert penalty_value(eps, t)[1] == pytest.approx(np.exp(t / eps) / eps, rel=1e-12)


def test_penalty_monotone_on_random_pairs():
    rng = np.random.default_rng(0)
    fn = PenaltyFn(0.08)
    t = np.sort(rng.uniform(-3, 30, size=200))
    k = fn.value(t)
    assert np.all(np.diff(k) >= 0)
    assert np.all(k >= 0)


def test_penalty_antiderivative_matches_quadrature():
    fn = PenaltyFn(0.25)
    g = 1.0
    for r in (0.5, 1.2, 3.0, 6.0):
        ts = np.linspace(0, r, 200001)
        quad = np.trapezoid(ts * fn.value(ts - g), ts)
        assert fn.antiderivative_radial(r, g) == pytest.approx(quad, rel=1e-7, abs=1e-9)


def test_flux_monotonicity():
    # the penalty+regularization flux is the gradient of a convex radial
    # function, hence a monotone map of the gradient vector
    rng = np.random.default_rng(3)
    fn = PenaltyFn(0.1)
    q, eps, g = 4.0, 0.1, 1.0

    def flux(p):
        m = np.linalg.norm(p)
        return (fn.value(np.array(m - g)) + eps * m ** (q - 2)) * p

    for _ in range(100):
        p, r = rng.normal(size=2), rng.normal(size=2)
        assert np.dot(flux(p) - flux(r), p - r) >= -1e-12


def test_penalized_residual_zero():
    g, op, _, thr = torsion_setup()
    src0 = constant_source(g, 0.0)
    u0 = ScalarField(g, np.zeros(g.shape))
    r = penalized_residual(u0, op, src0, thr, 0.7, SolverConfig(eps=0.1))
    assert not r.values.any()


def test_penalized_residual_is_energy_gradient():
    g, op, src, thr = torsion_setup(n=64)
    cfg = SolverConfig(eps=0.1)
    rng = np.random.default_rng(5)
    mask = g.masks().inside
    u = ScalarField(g, np.where(mask, 0.3 * rng.normal(size=g.shape), 0.0))
    delta = np.where(mask, rng.normal(size=g.shape), 0.0)
    r = penalized_residual(u, op, src, thr, 1.0, cfg)
    directional = float(np.sum(r.values * delta))
    t = 1e-6
    up = ScalarField(g, u.values + t * delta)
    um = ScalarField(g, u.values - t * delta)
    fd = (
        discrete_energy(up, op, src, thr, 1.0, cfg)
        - discrete_energy(um, op, src, thr, 1.0, cfg)
    ) / (2 * t)
    assert fd == pytest.approx(directional, rel=1e-6)


def test_zero_data_solves_exactly():
    g, op, _, thr = torsion_setup()
    src0 = constant_source(g, 0.0)
    sol = solve_fixed_eps(op, src0, thr, 0.7, SolverConfig(eps=0.05))
    assert sol.converged and sol.iterations == 0
    assert not sol.u.values.any()
    assert not sol.lam.values.any()


def test_solution_support_and_sign_invariants():
    g, op, src, thr = torsion_setup()
    sol = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.01))
    assert sol.converged
    mask = g.masks().inside
    assert not sol.u.values[~mask].any()  # u = 0 outside Omega, identically
    assert sol.lam.values.min() >= 0.0  # lambda >= 0 by construction


def test_violation_bounded_by_sqrt_eps():
    g, op, src, thr = torsion_setup(n=128)
    for eps in (0.1, 0.01):
        sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=eps))
        rep = kkt_report(sol, op, src, thr, 1.0)
        assert rep.violation_sup <= np.sqrt(eps) + 1e-3


def test_solver_deterministic():
    g, op, src, thr = torsion_setup(n=64)
    a = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.03))
    b = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.03))
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.lam.values, b.lam.values)


def test_energy_descent_in_symmetric_case():
    g, op, src, thr = torsion_setup()
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.01))
    hist = np.asarray(sol.energy_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) <= 1e-10 * (1 + np.abs(hist[:-1])))


def test_single_stage_continuation_reduces_to_fixed_eps():
    g, op, src, thr = torsion_setup(n=64)
    stages = continuation_solve(op, src, thr, 0.7, SolverConfig(eps_schedule=(0.1,)))
    direct = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.1))
    assert len(stages) == 1
    assert np.array_equal(stages[0][1].u.values, direct.u.values)


def test_continuation_trends():
    g, op, src, thr = torsion_setup(n=128)
    stages = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE))
    viol = [rep.violation_sup for _, _, rep in stages]
    comp = [abs(rep.complementarity) for _, _, rep in stages]
    assert all(a > b for a, b in zip(viol, viol[1:]))
    assert all(a > b for a, b in zip(comp, comp[1:]))
    # V_eps = {|D^s u| - g > sqrt(eps)} empties out
    assert stages[-1][2].v_measure == 0.0


def test_kkt_zero_solution_report():
    g, op, _, thr = torsion_setup(n=64)
    src0 = constant_source(g, 0.0)
    sol = solve_fixed_eps(op, src0, thr, 0.7, SolverConfig(eps=0.05))
    rep = kkt_report(sol, op, src0, thr, 0.7)
    assert rep.violation_sup == 0.0
    assert rep.complementarity == 0.0
    assert rep.equation_residual == 0.0
    assert rep.k_l1 == 0.0 and rep.psi_l1 == 0.0


def test_lambda_supported_on_active_set():
    g, op, src, thr = torsion_setup(n=256)
    sol = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE))[-1][1]
    du = frac_gradient_spectral(sol.u, 1.0).magnitude()
    inactive = du < thr.g - np.sqrt(sol.eps)
    leak = g.cell_volume * float(np.sum(sol.lam.values[inactive]))
    assert leak <= 1e-10


def test_lambda_weighted_gradient_matches_threshold():
    g, op, src, thr = torsion_setup(n=256)
    sol = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE))[-1][1]
    du = frac_gradient_spectral(sol.u, 1.0).magnitude()
    num = float(np.sum(sol.lam.values * du**2))
    den = float(np.sum(sol.lam.values * thr.g**2))
    assert num / den == pytest.approx(1.0, abs=0.01)


def test_penalized_equation_residual_small():
    g, op, src, thr = torsion_setup(n=128)
    cfg = SolverConfig(eps=1e-2)
    sol = solve_fixed_eps(op, src, thr, 0.7, cfg)
    rep = kkt_report(sol, op, src, thr, 0.7)
    # the solved penalized equation holds against the battery to well below
    # 10x the Newton tolerance; the limit-system residual is O(eps) instead
    assert rep.penalized_residual_sup <= 10 * cfg.newton_tol
    assert rep.equation_residual > rep.penalized_residual_sup


def test_k_bounded_solutions_stay_in_threshold_ball():
    # feasible fields obey ||D^s u||_p(box) <= 2^(1/p) ||g||_p(Omega_R)
    g, op, src, thr = torsion_setup(n=128)
    sol = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=1e-3))
    du = frac_gradient_spectral(sol.u, 0.7)
    buffer_mask = g.masks().buffer_inside
    gf = ScalarField(g, thr.g)
    for p in (1.0, 2.0, 4.0):
        lhs = lp_norm(du, p)
        rhs = 2 ** (1 / p) * lp_norm(gf, p, region=buffer_mask)
        assert lhs <= rhs * (1 + 2 * np.sqrt(sol.eps))


def test_threshold_replacement_leaves_solution_unchanged():
    g = grid_1d(n=128)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    x = g.coords()
    growing = 1.0 + np.abs(x[0]) ** 4
    thr_g = threshold_replace(growing, g)
    thr_k = threshold_replace(growing, g, k=2 * thr_g.g_upper)
    cfg = SolverConfig(eps=1e-2)
    sol_g = solve_fixed_eps(op, src, thr_g, 0.7, cfg)
    sol_k = solve_fixed_eps(op, src, thr_k, 0.7, cfg)
    # constraint is inactive outside Omega_R, so the cap level is invisible
    assert np.max(np.abs(sol_g.u.values - sol_k.u.values)) <= 1e-10

    # and solving with the raw growing threshold agrees within solver scale
    thr_raw = __import__("fracmk.forms", fromlist=["Threshold"]).Threshold(
        g, growing, float(growing.min()), float(growing.max())
    )
    sol_raw = solve_fixed_eps(op, src, thr_raw, 0.7, cfg)
    assert np.max(np.abs(sol_raw.u.values - sol_g.u.values)) <= 1e-6


def test_2d_solve_smoke():
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1.0)
    sol = solve_fixed_eps(op, src, thr, 0.6, SolverConfig(eps=0.01))
    assert sol.converged
    rep = kkt_report(sol, op, src, thr, 0.6)
    assert rep.violation_sup <= np.sqrt(0.01) + 1e-3
    assert sol.lam.values.min() >= 0.0


# -- dense assembly: G columns, weighted-Gram Jacobian -------------------------


def grid_2d(n=16):
    return GridSpec(dim=2, box_side=4.0, points_per_axis=n, omega=ball(1.0), buffer=0.5)


@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_gradient_matrix_columns_are_spectral_gradients_of_unit_fields(grid):
    s = 0.7
    G = _gradient_matrix(grid, s)
    nodes = np.flatnonzero(grid.masks().inside.ravel())
    assert G.shape == (grid.dim, grid.points_per_axis**grid.dim, nodes.size)
    for i, node in enumerate(nodes):
        e = np.zeros(grid.points_per_axis**grid.dim)
        e[node] = 1.0
        du = frac_gradient_spectral(ScalarField(grid, e.reshape(grid.shape)), s).values
        assert np.max(np.abs(G[:, :, i] - du.reshape(grid.dim, -1))) <= 1e-13 * np.max(np.abs(G))
    assert not G.flags.writeable
    assert _gradient_matrix(grid, s) is G


def _reference_jacobian(prob, u):
    """The Jacobian as the plain d x d loop of G_a^T diag(coeff_ab) G_b."""
    p = prob.grad(u)
    mag = np.sqrt(np.sum(p**2, axis=0))
    magf = np.maximum(mag, 1e-150)
    k = prob.fn.value(mag - prob.g_flat)
    kp = prob.fn.derivative(mag - prob.g_flat)
    apen = k + prob.eps * magf ** (prob.q - 2)
    aniso = kp / magf + prob.eps * (prob.q - 2) * magf ** (prob.q - 4)
    G, unk = prob.fft.G, prob.unk_box_index
    J = np.zeros((prob.m, prob.m))
    for a in range(prob.d):
        for b in range(prob.d):
            coeff = prob.A_flat[a, b] + aniso * p[a] * p[b]
            if a == b:
                coeff = coeff + apen
            J += G[a].T @ (coeff[:, None] * G[b])
    for a in range(prob.d):
        J += G[a][unk].T * prob.dvec_flat[a, unk][None, :]
        J += prob.b_at[a][:, None] * G[a][unk]
    J[np.diag_indices_from(J)] += prob.c_at
    return prob.hd * J


def _operator(grid, kind):
    """Operators for the Jacobian checks; every A has a PSD symmetric part."""
    d, shp = grid.dim, grid.shape
    mask = grid.masks().inside
    x = grid.coords()
    if kind == "isotropic":
        return isotropic_operator(grid, a=1.0 + 0.5 * np.cos(x[0]))
    if kind == "degenerate":
        return isotropic_operator(grid, a=0.0)
    A = np.zeros((d, d) + shp)
    for j in range(d):
        A[j, j] = 1.0 + 0.3 * x[j] ** 2
    if d == 2:
        A[0, 1] = A[1, 0] = 0.4 * np.sin(x[0] + x[1])
    zero_v = np.zeros((d,) + shp)
    if kind == "anisotropic":
        return OperatorData(grid, A, zero_v, zero_v, np.zeros(shp))
    # non-symmetric A (a skew part where d = 2), b != dvec, c > 0 on Omega
    if d == 2:
        A[0, 1] += 0.7 * np.cos(x[1])
        A[1, 0] -= 0.7 * np.cos(x[1])
    b = np.where(mask, 0.5 + x[0], 0.0)[None] * np.ones((d,) + shp)
    dvec = np.where(mask, -0.3 * x[-1], 0.0)[None] * np.ones((d,) + shp)
    return OperatorData(grid, A, b, dvec, np.where(mask, 0.8, 0.0))


def _active_problem(grid, kind, seed=0):
    """A penalty problem and an iterate whose |D^s u| crosses g = 1."""
    s = 0.7
    op = _operator(grid, kind)
    prob = _PenaltyProblem(op, constant_source(grid, 1.0), constant_threshold(grid, 1.0), s, 0.1, default_q(grid.dim, s))
    u = np.random.default_rng(seed).normal(size=prob.m)
    p = prob.grad(u)
    u *= 1.3 / np.max(np.sqrt(np.sum(p**2, axis=0)))
    return prob, u


@pytest.mark.parametrize("kind", ["isotropic", "anisotropic", "nonsymmetric", "degenerate"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_jacobian_matches_reference_loop(grid, kind):
    prob, u = _active_problem(grid, kind)
    assert prob.symmetric == (kind != "nonsymmetric")
    J = prob.jacobian(u)
    ref = _reference_jacobian(prob, u)
    assert np.linalg.norm(J - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_jacobian_is_derivative_of_residual(grid):
    prob, u = _active_problem(grid, "nonsymmetric", seed=1)
    v = np.random.default_rng(2).normal(size=prob.m)
    t = 1e-6 * np.linalg.norm(u) / np.linalg.norm(v)
    fd = (prob.residual(u + t * v) - prob.residual(u - t * v)) / (2 * t)
    Jv = prob.jacobian(u) @ v
    assert np.linalg.norm(fd - Jv) <= 1e-6 * np.linalg.norm(Jv)


# -- KKT report: the nodal weak residual against the FFT forms -----------------


def _reference_kkt(sol, op, src, thr, s):
    """The KKT report as the per-field loop of FFT gradients and forms."""
    from fracmk.forms import bilinear_apply, linear_apply
    from fracmk.penalty import kkt_battery

    grid = op.grid
    hd = grid.cell_volume
    du = frac_gradient_spectral(sol.u, s)
    mag = du.magnitude()
    slack = mag - thr.g
    eps_coeff = sol.eps * np.maximum(mag, 1e-150) ** (sol.q - 2) if sol.eps > 0 else np.zeros_like(mag)
    eq_res = pen_res = 0.0
    for v in kkt_battery(grid):
        dv = frac_gradient_spectral(v, s)
        norm_v = np.sqrt(hd * np.sum(dv.values**2))
        if norm_v == 0:
            continue
        pair = np.sum(du.values * dv.values, axis=0)
        base = bilinear_apply(op, sol.u, v, s) + hd * np.sum(sol.lam.values * pair) - linear_apply(src, v, s)
        eq_res = max(eq_res, abs(base) / norm_v)
        pen_res = max(pen_res, abs(base + hd * np.sum(eps_coeff * pair)) / norm_v)
    r = max(sol.q - 1.0, 1.0)
    return {
        "violation_sup": float(np.max(np.maximum(slack, 0.0))),
        "complementarity": hd * float(np.sum(sol.lam.values * slack)),
        "equation_residual": eq_res,
        "penalized_residual_sup": pen_res,
        "dsu_lr": lp_norm(du, r),
    }


def _kkt_grids():
    return {
        "1d-interval": grid_1d(n=128),
        "2d-ball": GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5),
        "2d-rectangle": GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=rectangle(1.0, 0.6), buffer=0.5),
    }


def _fixed_solution(grid, op, s, eps, seed=3):
    """A random u on Omega with |D^s u| crossing g = 1, lam >= 0 on the box."""
    from fracmk.grid import VectorField

    rng = np.random.default_rng(seed)
    mask = grid.masks().inside
    u = np.zeros(grid.shape)
    u[mask] = rng.normal(size=int(mask.sum()))
    u = u * (1.5 / np.max(frac_gradient_spectral(ScalarField(grid, u.copy()), s).magnitude()))
    lam = rng.uniform(0.0, 2.0, size=grid.shape)
    du = frac_gradient_spectral(ScalarField(grid, u), s).values
    q = default_q(grid.dim, s) if eps > 0 else 0.0
    return Solution(
        u=ScalarField(grid, u),
        lam=ScalarField(grid, lam),
        psi=VectorField(grid, lam[None] * du),
        eps=eps,
        q=q,
        s=s,
        converged=True,
        iterations=0,
        residual_norm=0.0,
    )


@pytest.mark.parametrize("eps", [0.05, 0.0], ids=["penalty", "oracle"])
@pytest.mark.parametrize("kind", ["isotropic", "nonsymmetric"])
@pytest.mark.parametrize("name", list(_kkt_grids()))
def test_kkt_report_matches_fft_form_loop(name, kind, eps):
    from fracmk.forms import SourceData

    grid = _kkt_grids()[name]
    s = 0.7
    op = _operator(grid, kind)
    mask = grid.masks().inside
    x = grid.coords()
    f_vec = np.stack([np.cos(x[j]) * np.exp(-np.sum(x**2, axis=0)) for j in range(grid.dim)])
    src = SourceData(grid, np.where(mask, 1.0 + 0.5 * x[0], 0.0), f_vec if kind == "nonsymmetric" else 0 * f_vec)
    thr = constant_threshold(grid, 1.0)
    sol = _fixed_solution(grid, op, s, eps)
    rep = kkt_report(sol, op, src, thr, s)
    ref = _reference_kkt(sol, op, src, thr, s)
    assert rep.equation_residual > 0 and rep.violation_sup > 0
    for field, want in ref.items():
        assert getattr(rep, field) == pytest.approx(want, rel=1e-10), field
    if eps == 0:
        assert rep.penalized_residual_sup == rep.equation_residual


@pytest.mark.parametrize("name", list(_kkt_grids()))
def test_kkt_battery_vanishes_off_omega(name):
    from fracmk.penalty import kkt_battery

    grid = _kkt_grids()[name]
    outside = ~grid.masks().inside
    battery = kkt_battery(grid)
    assert len(battery) == 32 + 4 * grid.dim
    for v in battery:
        assert not v.values[outside].any()


def test_kkt_report_rejects_u_outside_omega():
    g, op, src, thr = torsion_setup(n=64)
    sol = _fixed_solution(g, op, 0.7, 0.05)
    u = sol.u.values.copy()
    u[np.flatnonzero(~g.masks().inside)[0]] = 1e-3
    with pytest.raises(ValueError, match="outside Omega"):
        kkt_report(replace(sol, u=ScalarField(g, u)), op, src, thr, 0.7)


def test_energy_history_ends_at_discrete_energy_of_solution():
    g, op, src, thr = torsion_setup()
    cfg = SolverConfig(eps=0.01)
    sol = solve_fixed_eps(op, src, thr, 1.0, cfg)
    assert sol.energy_history[-1] == discrete_energy(sol.u, op, src, thr, 1.0, cfg)


# -- inexact Newton: same answers as the direct loop, the FFT pair is G --------


def _reference_newton(prob, u0, cfg):
    """Newton with a dense Jacobian and a direct solve at every step: the
    loop that the lagged-inverse Krylov iteration replaced."""
    u = u0.copy()
    scale = 1.0 + float(np.linalg.norm(prob.rhs))
    damping = cfg.damping
    p = prob.grad(u)
    r = prob.residual(u, p)
    rnorm = float(np.linalg.norm(r))
    energy = prob.energy(u, p) if prob.symmetric else None
    it = 0
    best, since_best = rnorm, 0
    while rnorm > cfg.newton_tol * scale and it < cfg.max_iters:
        if since_best >= 15:
            break
        it += 1
        J = prob.jacobian(u, p)
        J[np.diag_indices_from(J)] += damping * (1.0 + np.abs(J.diagonal()))
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            damping = max(damping * 100, 1e-8)
            continue
        t = 1.0
        accepted = False
        slope = float(r @ step)
        while t >= cfg.min_step:
            cand = u + t * step
            p_new = prob.grad(cand)
            r_new = prob.residual(cand, p_new)
            rn = float(np.linalg.norm(r_new))
            if not np.isfinite(rn):
                t *= 0.5
                continue
            e_new = None
            if prob.symmetric:
                e_new = prob.energy(cand, p_new)
                tiny = 1e-12 * (1 + abs(energy))
                ok = e_new <= energy + 1e-4 * t * slope + 0.1 * tiny
                ok = ok or (rn <= (1 - 1e-4 * t) * rnorm and e_new <= energy + tiny)
            else:
                ok = rn <= (1 - 1e-4 * t) * rnorm or rn <= 0.5 * cfg.newton_tol * scale
            if ok:
                u, p, r, rnorm, energy = cand, p_new, r_new, rn, e_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            damping = max(damping * 100, 1e-8)
            if damping > 1e6:
                break
            continue
        damping = max(cfg.damping, damping / 10)
        if rnorm < 0.99 * best:
            best, since_best = rnorm, 0
        else:
            since_best += 1
    return u, rnorm <= cfg.newton_tol * scale, it


def _newton_cases():
    """name -> (operator, f, s, eps schedule, max_iters); each starts at eps = 0.1."""
    g1 = grid_1d(n=128)
    g2 = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    g2s = grid_2d()
    return {
        "1d-torsion": (isotropic_operator(g1, a=1.0), 2.0, 1.0, (0.1, 0.03, 0.01, 3e-3, 1e-3), 120),
        "2d-isotropic": (isotropic_operator(g2, a=1.0), 2.0, 0.7, (0.1, 0.03, 0.01), 120),
        "2d-anisotropic": (_operator(g2, "anisotropic"), 2.0, 0.7, (0.1, 0.03, 0.01), 120),
        "1d-nonsymmetric": (_operator(grid_1d(n=64), "nonsymmetric"), 1.0, 0.7, (0.1, 0.03), 120),
        "2d-nonsymmetric": (_operator(g2s, "nonsymmetric"), 1.0, 0.7, (0.1, 0.03), 120),
        "1d-degenerate-transport": (isotropic_operator(grid_1d(n=256), a=0.0), 1.0, 1.0, (0.1, 0.03, 0.01, 3e-3, 1e-3), 200),
    }


@pytest.mark.parametrize("name", list(_newton_cases()))
def test_inexact_newton_matches_direct_newton(name):
    op, f, s, schedule, max_iters = _newton_cases()[name]
    grid = op.grid
    src, thr = constant_source(grid, f), constant_threshold(grid, 1.0)
    q = default_q(grid.dim, s)
    lagged = _LaggedInverse()
    u_ref = u = np.zeros(int(grid.masks().inside.sum()))
    iters = 0
    for eps in schedule:
        cfg = SolverConfig(eps=eps, max_iters=max_iters)
        prob = _PenaltyProblem(op, src, thr, s, eps, q)
        assert prob.symmetric == ("nonsymmetric" not in name)
        u_ref, ok_ref, _ = _reference_newton(prob, u_ref, cfg)
        u, stop, it, _, _ = _run_newton(prob, u, cfg, lagged)
        assert ok_ref and stop == "converged", eps
        assert np.linalg.norm(u - u_ref) <= 1e-7 * np.linalg.norm(u_ref), eps
        iters += it
    assert lagged.krylov > 0
    if name == "2d-isotropic":
        assert lagged.jacobians < iters
    if "degenerate" in name:
        # past the first Newton step, the a = 0 cold start assembles again
        assert lagged.jacobians >= 2


@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_fft_pair_is_the_gradient_matrix(grid):
    s = 0.7
    fft = _omega_fft(grid, s)
    G = _gradient_matrix(grid, s)
    d, N, m = G.shape
    rng = np.random.default_rng(4)
    v = rng.normal(size=m)
    w = rng.normal(size=(d, N))
    Gv = G.reshape(d * N, m) @ v
    assert np.linalg.norm(fft.grad(v).ravel() - Gv) <= 1e-13 * np.linalg.norm(Gv)
    lhs, rhs = float(np.sum(fft.grad(v) * w)), float(v @ fft.adjoint(w))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(Gv) * np.linalg.norm(w)
    GTw = w.ravel() @ G.reshape(d * N, m)
    assert np.linalg.norm(fft.adjoint(w) - GTw) <= 1e-13 * np.linalg.norm(GTw)
    assert _omega_fft(grid, s) is fft


@pytest.mark.parametrize("kind", ["isotropic", "anisotropic", "nonsymmetric", "degenerate"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_matrix_free_linearization_is_the_jacobian(grid, kind):
    prob, u = _active_problem(grid, kind)
    p = prob.grad(u)
    J = prob.jacobian(u, p)
    apply, diag = prob.linearization(p)
    assert np.linalg.norm(diag - J.diagonal()) <= 1e-12 * np.linalg.norm(J.diagonal())
    v = np.random.default_rng(5).normal(size=prob.m)
    assert np.linalg.norm(apply(v) - J @ v) <= 1e-12 * np.linalg.norm(J @ v)


def _count(note: str) -> int:
    return int(note.split("=")[1])


def test_solution_notes_name_the_stop_and_the_work():
    g, op, src, thr = torsion_setup()
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.01))
    stop, jac, kry = sol.notes
    assert stop == "stop=converged"
    assert jac.startswith("jacobians=") and kry.startswith("krylov=")
    # the cold start walks 0.1, 0.025, 0.01: it assembles at its first step
    # and then lives mostly on the lagged inverse
    assert 1 <= _count(jac) < sol.iterations and _count(kry) > 0
    zero = solve_fixed_eps(op, constant_source(g, 0.0), thr, 1.0, SolverConfig(eps=0.1))
    assert zero.notes == ("stop=converged", "jacobians=0", "krylov=0")
    # the later stages of a continuation reuse the first stage's inverse
    stages = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=(0.1, 0.03, 0.01)))
    assert _count(stages[0][1].notes[1]) >= 1
    later = [sol for _, sol, _ in stages[1:]]
    assert sum(_count(sol.notes[1]) for sol in later) < sum(sol.iterations for sol in later)
    stops = {
        "budget": SolverConfig(eps=0.1, max_iters=2),
        "stagnated": SolverConfig(eps=0.1, newton_tol=1e-30),  # below the rounding floor
        "damping": SolverConfig(eps=0.1, min_step=2.0),  # no trial step is ever taken
    }
    for stop, cfg in stops.items():
        sol = solve_fixed_eps(op, src, thr, 1.0, cfg)
        assert sol.notes[0] == f"stop={stop}" and not sol.converged


def test_failed_continuation_names_its_stop_reason():
    g, op, src, thr = torsion_setup()
    with pytest.raises(RuntimeError, match=r"eps=0.1 failed to converge: stop=budget after 2 Newton iterations, residual"):
        continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=(0.1, 0.01), max_iters=2))


def test_concurrent_solves_share_no_state():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    g, op, src, thr = torsion_setup(n=64)
    cfg = SolverConfig(eps_schedule=(0.1, 0.01, 1e-3))
    jobs = [(src, 0.7), (src, 0.9), (constant_source(g, 1.5), 0.8), (src, 1.0), (src, 0.7)]

    def solve(job):
        return continuation_solve(op, job[0], thr, job[1], cfg)[-1][1].u.values

    serial = [solve(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(solve, job) for job in jobs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()
