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
    operator_from_preset,
    threshold_replace,
)
from fracmk import dense, lattice, penalty
from fracmk.lattice import kkt_battery, omega_fft
from fracmk.oracle import analytic_mk_1d, pdhg_solve
from fracmk.penalty import (
    EXP_CAP,
    PenaltyFn,
    _feasible_start,
    _LaggedInverse,
    _PenaltyProblem,
    _run_newton,
    SolverConfig,
    Solution,
    continuation_solve,
    default_q,
    kkt_report,
    solve_fixed_eps,
)
from fracmk.runs import _weak_lambda_error, weak_battery

SCHEDULE = (0.1, 0.03, 0.01, 3e-3, 1e-3)


def grid_1d(n=128, L=4.0):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=0.6)


def torsion_setup(n=128, f=2.0, a=1.0):
    g = grid_1d(n)
    return g, isotropic_operator(g, a=a), constant_source(g, f), constant_threshold(g, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=1.5)
    with pytest.raises(TypeError, match="'q'"):
        SolverConfig(q=4.0)  # q is always default_q(d, s)
    with pytest.raises(ValueError):
        SolverConfig(eps_schedule=(0.1, 0.2))  # not decreasing
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="newton_tol"):
            SolverConfig(newton_tol=bad)
    for bad in (-5, 2.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=bad)
    cfg = SolverConfig(eps_schedule=[0.1, 0.01])
    assert cfg.eps_schedule == (0.1, 0.01)
    # the cold-start and stop-reason tests rely on these edge values
    assert SolverConfig(max_iters=0, newton_tol=1e-30).max_iters == 0


def test_default_q_exceeds_threshold():
    for d in (1, 2):
        for s in (0.3, 0.5, 0.7, 1.0):
            assert default_q(d, s) > 1 + d / s
            assert default_q(d, s) > 2


# -- references: k_eps', and the discrete energy whose gradient is the residual


def _t_cap(eps):
    """Where k_eps saturates: 1/eps, or EXP_CAP eps where the clamp engages."""
    return min(1.0 / eps, EXP_CAP * eps)


def _derivative(eps, t):
    """k'_eps(t)."""
    t = np.asarray(t, dtype=float)
    on = (t > 0) & (t < _t_cap(eps))
    arg = np.minimum(t / eps, EXP_CAP)
    return np.where(on, np.exp(arg) / eps, 0.0)


def _antiderivative_radial(eps, r, g):
    """pi(r) = int_0^r tau k_eps(tau - g) dtau, the convex radial energy."""
    r = np.asarray(r, dtype=float)
    g = np.asarray(g, dtype=float)
    tc, ks = _t_cap(eps), PenaltyFn(eps).k_sat
    T = np.clip(r - g, 0.0, tc)
    eT = np.exp(np.minimum(T / eps, EXP_CAP))
    core = eps * (T + g) * eT - eps**2 * eT - eps * g + eps**2 - T**2 / 2 - g * T
    out = np.where(r > g, core, 0.0)
    over = r - g > tc
    if np.any(over):
        out = out + np.where(over, ks * (r**2 - (g + tc) ** 2) / 2, 0.0)
    return out


def _degenerate(form):
    """Whether A = 0 and c = 0 at some Omega node, read off the form's own
    coefficients: the reference rule for the q-power term."""
    zero = np.all(form.A_flat[..., form.fft.nodes] == 0.0, axis=(0, 1)) & (form.c_at == 0.0)
    return bool(np.any(zero))


def _reg_eps(prob):
    """The factor of the q-power term: eps where the form degenerates, else 0."""
    return prob.eps if _degenerate(prob) else 0.0


def _reference_energy(prob, u, p=None):
    """The discrete energy of the penalized problem at u, p = D^s u."""
    p = prob.grad(u) if p is None else p
    mag = np.sqrt(np.sum(p**2, axis=0))
    quad = 0.5 * np.sum(np.einsum("abN,bN->aN", prob.A_flat, p) * p)
    conv = np.sum(prob.dvec_flat[:, prob.fft.nodes] * p[:, prob.fft.nodes] * u[None])
    low = 0.5 * np.sum(prob.c_at * u**2)
    pen = np.sum(_antiderivative_radial(prob.eps, mag, prob.g_flat))
    reg = (_reg_eps(prob) / prob.q) * np.sum(np.maximum(mag, 0.0) ** prob.q)
    return float(prob.hd * (quad + conv + low + pen + reg) - prob.rhs @ u)


def test_penalty_branches():
    eps = 0.3
    fn = PenaltyFn(eps)
    k, kp = fn.value(-1.0), _derivative(eps, -1.0)
    assert k == 0.0 and kp == 0.0
    # continuity at the saturation knee t = 1/eps
    below = fn.value(1 / eps - 1e-12)
    at = fn.value(1 / eps)
    above = fn.value(1 / eps + 5.0)
    sat = np.expm1(1 / eps**2)
    assert at == pytest.approx(sat, rel=1e-12)
    assert above == pytest.approx(sat, rel=1e-12)
    assert below == pytest.approx(sat, rel=1e-6)
    # midbranch derivative
    t = 0.7
    assert _derivative(eps, t) == pytest.approx(np.exp(t / eps) / eps, rel=1e-12)


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
        assert _antiderivative_radial(fn.eps, r, g) == pytest.approx(quad, rel=1e-7, abs=1e-9)


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
    prob = _PenaltyProblem(op, constant_source(g, 0.0), thr, 0.7, 0.1)
    assert not prob.residual(np.zeros(prob.m)).any()


def test_penalized_residual_is_energy_gradient():
    # the nodal residual is the gradient of the discrete energy
    g, op, src, thr = torsion_setup(n=64)
    prob = _PenaltyProblem(op, src, thr, 1.0, 0.1)
    rng = np.random.default_rng(5)
    mask = g.masks().inside
    u = np.where(mask, 0.3 * rng.normal(size=g.shape), 0.0)[mask]
    delta = np.where(mask, rng.normal(size=g.shape), 0.0)[mask]
    directional = float(prob.residual(u) @ delta)
    t = 1e-6
    fd = (_reference_energy(prob, u + t * delta) - _reference_energy(prob, u - t * delta)) / (2 * t)
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
        rep = kkt_report(sol, op, src, thr)
        assert rep.violation_sup <= np.sqrt(eps) + 1e-3


def test_solver_deterministic():
    g, op, src, thr = torsion_setup(n=64)
    a = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.03))
    b = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.03))
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.lam.values, b.lam.values)


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
    rep = kkt_report(sol, op, src0, thr)
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
    rep = kkt_report(sol, op, src, thr)
    # the solved penalized equation holds against the battery to well below
    # 10x the Newton tolerance; a coercive form has no q-power term, so it
    # is the limit system itself
    assert sol.converged and rep.penalized_residual_sup <= 10 * cfg.newton_tol
    assert rep.equation_residual == rep.penalized_residual_sup


def test_degenerate_limit_residual_exceeds_the_penalized_one():
    # A = 0: the penalized equation keeps eps |D^s u|^(q-2), which the
    # limit system leaves out, so its residual is O(eps) instead
    g, op, src, thr = torsion_setup(n=128, f=1.0, a=0.0)
    cfg = SolverConfig(eps=1e-2)
    sol = solve_fixed_eps(op, src, thr, 0.7, cfg)
    rep = kkt_report(sol, op, src, thr)
    assert sol.converged and rep.penalized_residual_sup <= 10 * cfg.newton_tol
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
    thr_raw = __import__("fracmk.forms", fromlist=["Threshold"]).Threshold(g, growing)
    sol_raw = solve_fixed_eps(op, src, thr_raw, 0.7, cfg)
    assert np.max(np.abs(sol_raw.u.values - sol_g.u.values)) <= 1e-6


def test_2d_solve_smoke():
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1.0)
    sol = solve_fixed_eps(op, src, thr, 0.6, SolverConfig(eps=0.01))
    assert sol.converged
    rep = kkt_report(sol, op, src, thr)
    assert rep.violation_sup <= np.sqrt(0.01) + 1e-3
    assert sol.lam.values.min() >= 0.0


# -- dense assembly: G columns, column-block Jacobian ---------------------------


def grid_2d(n=16):
    return GridSpec(dim=2, box_side=4.0, points_per_axis=n, omega=ball(1.0), buffer=0.5)


def _reference_gradient_matrix(grid, s):
    """The dense G, (d, N, m): spectral gradients of the Omega unit fields."""
    nodes = np.flatnonzero(grid.masks().inside.ravel())
    G = np.empty((grid.dim, grid.points_per_axis**grid.dim, nodes.size))
    for i, node in enumerate(nodes):
        e = np.zeros(G.shape[1])
        e[node] = 1.0
        G[:, :, i] = frac_gradient_spectral(ScalarField(grid, e.reshape(grid.shape)), s).values.reshape(grid.dim, -1)
    return G


# 2D n=32 (m = 193) takes 7 blocks of columns, the last one partial
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(), grid_2d(n=32)], ids=["1d", "2d", "2d-blocks"])
def test_gradient_matrix_columns_are_spectral_gradients_of_unit_fields(grid):
    s = 0.7
    fft = omega_fft(grid, s)
    G = _reference_gradient_matrix(grid, s)
    blocks = list(fft.column_blocks())
    # consecutive slices that cover every node once
    assert [j.start for j, _ in blocks] == [0] + [j.stop for j, _ in blocks[:-1]]
    assert blocks[-1][0].stop == G.shape[2]
    cols = np.concatenate([P for _, P in blocks])
    assert cols.shape == (G.shape[2], grid.dim, G.shape[1])
    assert np.max(np.abs(np.moveaxis(cols, 0, -1) - G)) <= 1e-13 * np.max(np.abs(G))
    # the blocks are fresh arrays: writing one leaves the kernel and the next block alone
    blocks[0][1][...] = 0.0
    assert np.array_equal(next(fft.column_blocks())[1], cols[: blocks[0][1].shape[0]])


def _primal_multiplier(prob, p):
    """lam = k_eps(|p| - g) and gain = k'_eps(|p| - g): the primal penalty's
    multiplier and its derivative, which jacobian takes at a primal point."""
    t = np.sqrt(np.sum(p**2, axis=0)) - prob.g_flat
    return prob.fn.value(t), _derivative(prob.eps, t)


def _reference_jacobian(prob, u):
    """The Jacobian as the plain d x d loop of G_a^T diag(coeff_ab) G_b."""
    p = prob.grad(u)
    mag = np.sqrt(np.sum(p**2, axis=0))
    magf = np.maximum(mag, 1e-150)
    k = prob.fn.value(mag - prob.g_flat)
    kp = _derivative(prob.eps, mag - prob.g_flat)
    apen = k + _reg_eps(prob) * magf ** (prob.q - 2)
    aniso = kp / magf + _reg_eps(prob) * (prob.q - 2) * magf ** (prob.q - 4)
    C = prob.A_flat + aniso * p[:, None] * p[None, :]
    C[np.diag_indices(prob.d)] += apen
    return _reference_form_matrix(prob, C)


def _reference_form_matrix(prob, C):
    """h^d [sum_ab G_a^T diag(C_ab) G_b + the b, dvec and c terms] as the
    plain loop over the dense G, for a (d, d, N) C."""
    G, unk = _reference_gradient_matrix(prob.grid, prob.s), prob.fft.nodes
    J = np.zeros((prob.m, prob.m))
    for a in range(prob.d):
        for b in range(prob.d):
            J += G[a].T @ (C[a, b][:, None] * G[b])
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
    prob = _PenaltyProblem(op, constant_source(grid, 1.0), constant_threshold(grid, 1.0), s, 0.1)
    u = np.random.default_rng(seed).normal(size=prob.m)
    p = prob.grad(u)
    u *= 1.3 / np.max(np.sqrt(np.sum(p**2, axis=0)))
    return prob, u


@pytest.mark.parametrize("kind", ["isotropic", "anisotropic", "nonsymmetric", "degenerate"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(), grid_2d(n=32)], ids=["1d", "2d", "2d-blocks"])
def test_jacobian_matches_reference_loop(grid, kind):
    prob, u = _active_problem(grid, kind)
    assert prob.symmetric == (kind != "nonsymmetric")
    p = prob.grad(u)
    J = prob.jacobian(p, *_primal_multiplier(prob, p))
    ref = _reference_jacobian(prob, u)
    assert np.linalg.norm(J - ref) <= 1e-12 * np.linalg.norm(ref)


def test_jacobian_assembly_never_holds_the_dense_gradient_matrix():
    import tracemalloc

    prob, u = _active_problem(grid_2d(n=64), "isotropic")
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    G_bytes = 8 * prob.d * prob.N * prob.m  # 52 MB, m = 793
    tracemalloc.start()
    try:
        J = prob.jacobian(p, lam, gain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert J.shape == (prob.m, prob.m)
    assert peak < G_bytes / 2


@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_jacobian_is_derivative_of_residual(grid):
    prob, u = _active_problem(grid, "nonsymmetric", seed=1)
    v = np.random.default_rng(2).normal(size=prob.m)
    t = 1e-6 * np.linalg.norm(u) / np.linalg.norm(v)
    fd = (prob.residual(u + t * v) - prob.residual(u - t * v)) / (2 * t)
    p = prob.grad(u)
    Jv = prob.jacobian(p, *_primal_multiplier(prob, p)) @ v
    assert np.linalg.norm(fd - Jv) <= 1e-6 * np.linalg.norm(Jv)


# -- KKT report: the nodal weak residual against the FFT forms -----------------


def _reference_kkt(sol, op, src, thr, s):
    """The KKT report as the per-field loop of FFT gradients and forms."""
    from fracmk.forms import bilinear_apply, linear_apply
    grid = op.grid
    hd = grid.cell_volume
    du = frac_gradient_spectral(sol.u, s)
    mag = du.magnitude()
    slack = mag - thr.g
    q_term = sol.eps > 0 and _degenerate(lattice.WeakForm(op, src, s))
    q = default_q(grid.dim, s)
    eps_coeff = sol.eps * np.maximum(mag, 1e-150) ** (q - 2) if q_term else np.zeros_like(mag)
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
    r = q - 1.0
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
    return Solution(
        u=ScalarField(grid, u),
        lam=ScalarField(grid, lam),
        psi=VectorField(grid, lam[None] * du),
        eps=eps,
        s=s,
        converged=True,
        iterations=0,
        residual_norm=0.0,
    )


@pytest.mark.parametrize("eps", [0.05, 0.0], ids=["penalty", "oracle"])
@pytest.mark.parametrize("kind", ["isotropic", "nonsymmetric", "degenerate"])
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
    rep = kkt_report(sol, op, src, thr)
    ref = _reference_kkt(sol, op, src, thr, s)
    assert rep.equation_residual > 0 and rep.violation_sup > 0
    for field, want in ref.items():
        assert getattr(rep, field) == pytest.approx(want, rel=1e-10), field
    # only a degenerate solve's penalized equation has the q-power term
    if eps == 0 or kind != "degenerate":
        assert rep.penalized_residual_sup == rep.equation_residual
    else:
        assert rep.penalized_residual_sup != rep.equation_residual


@pytest.mark.parametrize("name", list(_kkt_grids()))
def test_kkt_battery_vanishes_off_omega(name):
    grid = _kkt_grids()[name]
    outside = ~grid.masks().inside
    battery = kkt_battery(grid)
    assert len(battery) == 32 + 4 * grid.dim
    for v in battery:
        assert not v.values[outside].any()


def test_kkt_battery_is_pinned_across_python_versions():
    # every draw is Random(2024).random(), whose sequence CPython keeps across
    # versions, so run manifests built on the battery cannot drift unseen
    v = kkt_battery(grid_1d(n=64))[0].values
    assert v[[24, 32, 40]] == pytest.approx([-1.07216811085, 0.617424316156, 0.367528139653], rel=1e-9)


def test_kkt_report_rejects_u_outside_omega():
    g, op, src, thr = torsion_setup(n=64)
    sol = _fixed_solution(g, op, 0.7, 0.05)
    u = sol.u.values.copy()
    u[np.flatnonzero(~g.masks().inside)[0]] = 1e-3
    with pytest.raises(ValueError, match="outside Omega"):
        kkt_report(replace(sol, u=ScalarField(g, u)), op, src, thr)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_kkt_report_names_a_non_finite_input(value):
    g, op, src, thr = torsion_setup(n=64)
    sol = _fixed_solution(g, op, 0.7, 0.05)
    # a NaN eps read as an oracle's eps = 0
    with pytest.raises(ValueError, match="sol.eps must be finite"):
        kkt_report(replace(sol, eps=value), op, src, thr)
    # u and lam cannot carry one: a field rejects it when it is built
    node = np.flatnonzero(g.masks().inside)[3]
    for field in (sol.u, sol.lam):
        values = field.values.copy()
        values[node] = value
        with pytest.raises(ValueError, match="field values must be finite"):
            ScalarField(g, values)
    kkt_report(sol, op, src, thr)


# -- primal-dual Newton: the multiplier equation and its step -----------------


def _pd_residual(prob, u, lam):
    """(R1, R2) of the primal-dual system at (u, lam)."""
    p = prob.grad(u)
    mag = np.sqrt(np.sum(p**2, axis=0))
    return prob.weak_residual(u, p, lam + prob.regularization(mag)), prob.multiplier_equation(mag, lam)[0]


@pytest.mark.parametrize("kind", ["isotropic", "nonsymmetric"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_reduced_step_is_a_newton_direction(grid, kind):
    # away from the kinks of the active set, F(z + t dz) = (1 - t) F(z) + O(t^2)
    prob, u = _active_problem(grid, kind)
    p = prob.grad(u)
    mag = np.sqrt(np.sum(p**2, axis=0))
    # lam is off the primal relation, and every node is at least 0.1 from a
    # kink of min(lam, max(phi, lam - k_sat)): active where t > -0.2, else not
    t = mag - prob.g_flat
    lam = np.where(t > -0.2, prob.fn.value(t) + 0.5, 0.05)
    R2, lam_t, gain = prob.multiplier_equation(mag, lam)
    phi = prob.eps * np.log1p(lam) - (mag - prob.g_flat)
    assert np.min(np.abs(phi - lam)) > 0.1 and np.any(gain > 0) and np.any(gain == 0)
    du = np.linalg.solve(prob.jacobian(p, lam, gain), -prob.weak_residual(u, p, lam_t + prob.regularization(mag)))
    dlam = gain * np.sum(p / mag * prob.grad(du), axis=0) + lam_t - lam
    F = np.concatenate(_pd_residual(prob, u, lam))
    errs = []
    for t in (1e-3, 1e-5):
        Ft = np.concatenate(_pd_residual(prob, u + t * du, lam + t * dlam))
        errs.append(np.linalg.norm(Ft - (1 - t) * F) / np.linalg.norm(F))
    assert errs[0] <= 1e-5 and errs[1] <= 1e-3 * errs[0], errs


@pytest.mark.parametrize("eps", [0.3, 0.01], ids=["saturated", "clamped"])
def test_multiplier_equation_holds_on_the_primal_relation(eps):
    # every branch of k_eps: zero, the exponential, and saturation past
    # t_cap (1/eps, or EXP_CAP eps where the clamp engages)
    g, op, src, thr = torsion_setup(n=64)
    prob = _PenaltyProblem(op, src, thr, 1.0, eps)
    fn = prob.fn
    t = np.linspace(-1.0, 2 * _t_cap(eps), prob.N)
    mag = t + prob.g_flat
    lam = fn.value(t)
    R2, lam_t, gain = prob.multiplier_equation(mag, lam)
    assert np.all(np.abs(R2) <= 1e-12 * (1 + np.abs(t)))
    # the Newton target is lam itself, and the gain is k'_eps
    assert np.allclose(lam_t, lam, rtol=1e-12, atol=0.0)
    assert np.allclose(gain, _derivative(eps, t), rtol=1e-12, atol=0.0)
    sat = t > _t_cap(eps)
    assert np.any(sat) and np.all(lam[sat] == fn.k_sat) and not np.any(gain[sat])
    # below k_sat the log1p branch governs and drives lam up, towards the
    # cap to which the line search projects it
    half = np.where(sat, 0.5 * fn.k_sat, lam)
    R2, lam_t, gain = prob.multiplier_equation(mag, half)
    assert np.all(R2[sat] < 0) and np.all(gain[sat] > 0) and np.all(lam_t[sat] > half[sat])


def test_solve_into_the_saturated_branch():
    # at eps = 0.5, k_eps saturates at k_sat = e^4 - 1 past |D^s u| = g + 2;
    # f = 400 drives the torsion solution past it on part of Omega
    g, op, src, thr = torsion_setup(n=128, f=400.0)
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.5))
    assert sol.converged
    fn = PenaltyFn(0.5)
    mag = frac_gradient_spectral(sol.u, 1.0).magnitude().ravel()
    sat = mag - thr.g.ravel() > _t_cap(0.5)
    assert np.count_nonzero(sat) >= 10
    assert np.all(sol.lam.values.ravel()[sat] == fn.k_sat)
    rep = kkt_report(sol, op, src, thr)
    assert rep.penalized_residual_sup <= 10 * SolverConfig().newton_tol * (1 + 400.0)


# -- inexact Newton: same answers as the direct loop, the FFT pair is G --------


def _reference_newton(prob, u0, cfg):
    """Newton with a dense Jacobian and a direct solve at every step: the
    loop that the lagged-inverse Krylov iteration replaced."""
    u = u0.copy()
    scale = 1.0 + float(np.linalg.norm(prob.rhs))
    damping = penalty._DAMPING
    p = prob.grad(u)
    r = prob.residual(u, p)
    rnorm = float(np.linalg.norm(r))
    energy = _reference_energy(prob, u, p) if prob.symmetric else None
    it = 0
    best, since_best = rnorm, 0
    while rnorm > cfg.newton_tol * scale and it < cfg.max_iters:
        if since_best >= 15:
            break
        it += 1
        J = prob.jacobian(p, *_primal_multiplier(prob, p))
        J[np.diag_indices_from(J)] += damping * (1.0 + np.abs(J.diagonal()))
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            damping = max(damping * 100, 1e-8)
            continue
        t = 1.0
        accepted = False
        slope = float(r @ step)
        while t >= penalty._MIN_STEP:
            cand = u + t * step
            p_new = prob.grad(cand)
            r_new = prob.residual(cand, p_new)
            rn = float(np.linalg.norm(r_new))
            if not np.isfinite(rn):
                t *= 0.5
                continue
            e_new = None
            if prob.symmetric:
                e_new = _reference_energy(prob, cand, p_new)
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
        damping = max(penalty._DAMPING, damping / 10)
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
        # at f = 1 the constraint never binds: the problem is linear, and one
        # exact refresh step solves it with no Krylov iteration
        "2d-nonsymmetric": (_operator(g2s, "nonsymmetric"), 2.0, 0.7, (0.1, 0.03), 120),
        "1d-degenerate-transport": (isotropic_operator(grid_1d(n=256), a=0.0), 1.0, 1.0, (0.1, 0.03, 0.01, 3e-3, 1e-3), 200),
    }


@pytest.mark.parametrize("name", list(_newton_cases()))
def test_inexact_newton_matches_direct_newton(name):
    op, f, s, schedule, max_iters = _newton_cases()[name]
    grid = op.grid
    src, thr = constant_source(grid, f), constant_threshold(grid, 1.0)
    lagged = _LaggedInverse()
    u_ref = u = np.zeros(int(grid.masks().inside.sum()))
    iters = 0
    for eps in schedule:
        cfg = SolverConfig(eps=eps, max_iters=max_iters)
        prob = _PenaltyProblem(op, src, thr, s, eps)
        assert prob.symmetric == ("nonsymmetric" not in name)
        u_ref, ok_ref, _ = _reference_newton(prob, u_ref, cfg)
        u, stop, it, _ = _run_newton(prob, u, cfg, lagged)
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
    fft = omega_fft(grid, s)
    G = _reference_gradient_matrix(grid, s)
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
    # a leading batch axis applies the adjoint to each field
    W = rng.normal(size=(3, d, N))
    assert np.linalg.norm(fft.adjoint(W) - W.reshape(3, -1) @ G.reshape(d * N, m)) <= 1e-13 * np.linalg.norm(GTw) * 3
    assert omega_fft(grid, s) is fft


@pytest.mark.parametrize("shape", [(63,), (16, 9)], ids=["1d", "2d"])
def test_box_transforms_are_numpy_rfftn_and_irfftn(shape):
    d = len(shape)
    axes = tuple(range(-d, 0))
    rng = np.random.default_rng(6)
    for lead in [(), (3,), (2, 3)]:
        x = rng.normal(size=lead + shape)
        spec = lattice.rfft_box(x, d)
        assert np.array_equal(spec, np.fft.rfftn(x, axes=axes))
        assert np.array_equal(lattice.irfft_box(spec, shape), np.fft.irfftn(spec, s=shape, axes=axes))


@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(n=64)], ids=["1d", "2d-blocks"])
def test_gram_is_the_gram_of_the_gradient_columns(grid):
    fft = omega_fft(grid, 0.7)
    T = fft.gram(np.eye(fft.d))
    ref = np.concatenate([fft.adjoint(P) for _, P in fft.column_blocks()])
    assert np.linalg.norm(T - ref) <= 1e-12 * np.linalg.norm(ref)


CONSTANT_TENSORS = {
    "isotropic": [[2.5, 0.0], [0.0, 2.5]],
    "anisotropic": [[1.3, 0.4], [0.4, 0.7]],
    "nonsymmetric": [[1.3, 1.1], [-0.3, 0.7]],
}


@pytest.mark.parametrize("kind", list(CONSTANT_TENSORS))
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(), grid_2d(n=64)], ids=["1d", "2d", "2d-blocks"])
def test_gram_of_a_constant_tensor_is_the_gram_of_the_gradient_columns(grid, kind):
    fft = omega_fft(grid, 0.7)
    C0 = np.array(CONSTANT_TENSORS[kind])[: fft.d, : fft.d]
    T = fft.gram(C0)
    # row j of ref is G^T C0 G e_j, so ref is the transpose of the Gram
    ref = np.concatenate([fft.adjoint(np.einsum("ab,kbN->kaN", C0, P)) for _, P in fft.column_blocks()]).T
    assert np.linalg.norm(T - ref) <= 1e-12 * np.linalg.norm(ref)
    # 2D n=64 (m = 793) reads its offsets in 10 blocks of rows
    blocks = [i for i, _ in fft.offset_rows(np.zeros((1,) + grid.shape))]
    assert [i.start for i in blocks] == [0] + [i.stop for i in blocks[:-1]] and blocks[-1].stop == fft.nodes.size
    assert (len(blocks) > 1) == (fft.nodes.size == 793)


def _constant_operator(grid, kind):
    """Operators whose A is one tensor on the whole box; b, dvec and c vanish off Omega."""
    d, shp = grid.dim, grid.shape
    mask = grid.masks().inside
    x = grid.coords()
    A = np.array(CONSTANT_TENSORS["anisotropic" if kind == "anisotropic" else "isotropic"])[:d, :d]
    zero_v = np.zeros((d,) + shp)
    b = dvec = zero_v
    c = np.where(mask, 0.8, 0.0) if kind in ("c", "convection") else np.zeros(shp)
    if kind == "convection":
        if d == 2:
            A = A + np.array([[0.0, 0.7], [-0.7, 0.0]])  # a skew part
        b = np.where(mask, 0.5 + x[0], 0.0)[None] * np.ones((d,) + shp)
        dvec = np.where(mask, -0.3 * x[-1], 0.0)[None] * np.ones((d,) + shp)
    return OperatorData(grid, A.reshape((d, d) + (1,) * d) * np.ones(shp), b, dvec, c)


def _zero_start_problem(grid, op):
    s = 0.7
    return _PenaltyProblem(op, constant_source(grid, 1.0), constant_threshold(grid, 1.0), s, 0.1)


def _counting_adjoint(monkeypatch):
    calls = []
    adjoint = lattice.OmegaFFT.adjoint

    def counted(self, w):
        calls.append(w.shape)
        return adjoint(self, w)

    monkeypatch.setattr(lattice.OmegaFFT, "adjoint", counted)
    return calls


@pytest.mark.parametrize("kind", ["c", "anisotropic", "convection"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(), grid_2d(n=32)], ids=["1d", "2d", "2d-blocks"])
def test_jacobian_at_zero_with_constant_A_is_read_off_the_kernel(grid, kind, monkeypatch):
    prob = _zero_start_problem(grid, _constant_operator(grid, kind))
    assert prob.symmetric == (kind != "convection")
    u = np.zeros(prob.m)
    ref = _reference_jacobian(prob, u)
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    calls = _counting_adjoint(monkeypatch)
    J = prob.jacobian(p, lam, gain)
    assert calls == []
    assert np.linalg.norm(J - ref) <= 1e-12 * np.linalg.norm(ref)


def test_jacobian_at_zero_with_varying_A_takes_the_gradient_columns(monkeypatch):
    grid = grid_2d()
    prob = _zero_start_problem(grid, _operator(grid, "isotropic"))
    u = np.zeros(prob.m)
    ref = _reference_jacobian(prob, u)
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    calls = _counting_adjoint(monkeypatch)
    J = prob.jacobian(p, lam, gain)
    assert len(calls) == sum(1 for _ in prob.fft.column_blocks())
    assert np.linalg.norm(J - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["isotropic", "anisotropic", "nonsymmetric", "degenerate"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d", "2d"])
def test_matrix_free_linearization_is_the_jacobian(grid, kind):
    prob, u = _active_problem(grid, kind)
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    J = prob.jacobian(p, lam, gain)
    apply = prob.linearization(p, lam, gain)
    v = np.random.default_rng(5).normal(size=prob.m)
    assert np.linalg.norm(apply(v) - J @ v) <= 1e-12 * np.linalg.norm(J @ v)


# -- the refresh: the Jacobian, a Toeplitz principal part plus the active rows --


@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d()], ids=["1d-a=0", "2d-a=0-for-x>0"])
def test_refresh_inverts_the_jacobian_without_a_definite_constant_A(grid):
    # a refresh inverts the damped Jacobian, assembled by form_matrix's column route
    x = grid.coords()[0]
    op = isotropic_operator(grid, a=0.0 if grid.dim == 1 else np.where(x > 0, 0.0, 1.0))
    prob = _zero_start_problem(grid, op)
    assert prob.A0 is None and prob.degenerate
    u = np.random.default_rng(7).normal(size=prob.m)
    u *= 1.3 / _max_ratio(prob, u)
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    assert np.any(lam > 0)
    J = prob.jacobian(p, lam, gain)
    ref = _reference_form_matrix(prob, prob.flux_derivative(p, lam, gain))
    assert np.linalg.norm(J - ref) <= 1e-12 * np.linalg.norm(ref)
    J[np.diag_indices_from(J)] += penalty._DAMPING * (1.0 + np.abs(J.diagonal()))
    M = penalty._refreshed_inverse(prob, _LaggedInverse(), p, lam, gain, penalty._DAMPING)
    assert np.array_equal(M, dense.block_inverse(J, prob.symmetric))


@pytest.mark.parametrize("kind", ["c", "anisotropic", "convection"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(), grid_2d(n=32)], ids=["1d", "2d", "2d-blocks"])
def test_preconditioner_at_zero_with_constant_A_is_the_jacobian(grid, kind, monkeypatch):
    prob = _zero_start_problem(grid, _constant_operator(grid, kind))
    assert prob.A0 is not None
    p = prob.grad(np.zeros(prob.m))
    # k_eps and k'_eps vanish at u = 0: the primal multiplier is zero
    lam, gain = _primal_multiplier(prob, p)
    assert not np.any(lam) and not np.any(gain)
    # C is A0 at every node, so S is empty: J is the Toeplitz part, read off
    # the kernel
    J = prob._toeplitz(prob.hd * prob.A0)
    calls = _counting_adjoint(monkeypatch)
    assert np.array_equal(prob.jacobian(p, lam, gain), J)
    assert calls == []


@pytest.mark.parametrize("at", ["zero", "random"])
@pytest.mark.parametrize("kind", ["convection", "a=0"])
def test_assembly_into_storage_writes_every_entry(kind, at):
    # a refresh assembles J over the last inverse, so no route (Toeplitz or
    # columns, the b and dvec rows, the active rows) may add to an entry it
    # has not written
    grid = grid_1d(n=64)
    op = isotropic_operator(grid, a=0.0) if kind == "a=0" else _constant_operator(grid, kind)
    prob = _zero_start_problem(grid, op)
    u = np.zeros(prob.m)
    if at == "random":
        u = np.random.default_rng(7).normal(size=prob.m)
        u *= 1.3 / _max_ratio(prob, u)
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    assert np.any(lam > 0) == (at == "random")
    # the Jacobian, and an oracle's Q, the form_matrix of A
    for assemble in (lambda out=None: prob.jacobian(p, lam, gain, out), lambda out=None: prob.form_matrix(prob.A_flat, out)):
        out = np.full((prob.m, prob.m), np.nan)
        assert assemble(out) is out
        assert np.array_equal(out, assemble())


@pytest.mark.parametrize("kind", ["convection", "a=0"])
def test_assemblies_leave_their_flux_derivative_untouched(kind):
    # each folds h^d into a copy: form.A_flat is a view of op.A, so an
    # in-place fold would scale the operator itself
    grid = grid_1d(n=64)
    op = isotropic_operator(grid, a=0.0) if kind == "a=0" else _constant_operator(grid, kind)
    prob = _zero_start_problem(grid, op)
    assert (prob.A0 is None) == (kind == "a=0")
    u = np.random.default_rng(7).normal(size=prob.m)
    u *= 1.3 / _max_ratio(prob, u)
    p = prob.grad(u)
    lam, gain = _primal_multiplier(prob, p)
    A = op.A.copy()
    for C in (prob.flux_derivative(p, lam, gain), prob.A_flat):
        before = C.copy()
        prob.form_matrix(C)
        apply = prob.form_action(C)
        apply(u)
        prob.add_active_rows(np.zeros((prob.m, prob.m)), C, np.flatnonzero(lam > 0))
        assert np.array_equal(C, before)
    assert np.array_equal(op.A, A)


DISC_B = {"b=0": None, "b=(0.5,-0.3)": [0.5, -0.3]}


def _disc(n, b):
    """The solve-2d disc (a = 1, f = 2, g = 1), with b on Omega if given."""
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=n, omega=ball(1.0), buffer=0.5)
    op = operator_from_preset(g, {"a": 1.0} if b is None else {"a": 1.0, "b": b})
    return op, constant_source(g, 2.0), constant_threshold(g, 1.0)


def _stage_point(op, src, thr, eps, sol):
    """The problem at eps, and (p, lam, gain) at the converged sol."""
    prob = _PenaltyProblem(op, src, thr, 0.7, eps)
    p = prob.grad(sol.u.values[op.grid.masks().inside])
    lam = sol.lam.values.ravel()
    gain = prob.multiplier_equation(np.sqrt(np.sum(p**2, axis=0)), lam)[2]
    return prob, (p, lam, gain)


@pytest.mark.parametrize("b", list(DISC_B.values()), ids=list(DISC_B))
def test_disc_continuation_refreshes_without_gradient_columns(b, monkeypatch):
    # b != 0 makes the form non-symmetric, so the Krylov solves are GMRES
    op, src, thr = _disc(32, b)
    assert _zero_start_problem(op.grid, op).symmetric == (b is None)
    calls = []
    column_blocks = lattice.OmegaFFT.column_blocks

    def counted(self):
        calls.append(1)
        return column_blocks(self)

    monkeypatch.setattr(lattice.OmegaFFT, "column_blocks", counted)
    stages = continuation_solve(op, src, thr, 0.7, SolverConfig(eps_schedule=SCHEDULE))
    assert calls == []
    assert all(sol.converged for _, sol, _ in stages)
    assert sum(_count(sol.notes[1]) for _, sol, _ in stages) >= 2
    eps, _, rep = stages[-1]
    assert rep.violation_sup <= np.sqrt(eps) + eps


@pytest.mark.parametrize("b", list(DISC_B.values()), ids=list(DISC_B))
def test_refresh_route_of_the_jacobian_is_the_form_matrix(b):
    # A is one definite tensor A0 and the form has no q-power term, so the
    # flux derivative is A0 off the active set: the Toeplitz principal part
    # plus the active rows is J itself, up to rounding, against the plain
    # loop over the dense G
    op, src, thr = _disc(32, b)
    for eps, sol, _ in continuation_solve(op, src, thr, 0.7, SolverConfig(eps_schedule=SCHEDULE)):
        prob, point = _stage_point(op, src, thr, eps, sol)
        assert prob.A0 is not None and not prob.degenerate
        p, lam, _ = point
        assert np.any(lam > 0)  # the active set is not empty
        # a multiplier iterate off its relation: lam = 0, active (gain > 0) where |p| > g
        zero = np.zeros_like(lam)
        off = (p, zero, prob.multiplier_equation(np.sqrt(np.sum(p**2, axis=0)), zero)[2])
        for point in (point, off):
            ref = _reference_form_matrix(prob, prob.flux_derivative(*point))
            assert np.linalg.norm(prob.jacobian(*point) - ref) <= 1e-13 * np.linalg.norm(ref), eps


def _weak_form_with_convection(prob, u, p, hflux, u_box):
    """_weak_form with its dvec and b terms, whether they vanish or not."""
    out = prob.fft.adjoint(hflux + prob.hdvec * u_box[..., None, :])
    out += np.einsum("aj,...aj->...j", prob.hb_at, p[..., prob.fft.nodes])
    out += prob.hc_at * u
    return out


def _convection_free_case(name):
    """(op, src, thr, s) with b = dvec = 0: 1D with a varying a and c > 0, or the solve-2d disc."""
    if name == "2d-disc":
        return _disc(32, None) + (0.7,)
    g = grid_1d(n=64)
    op = isotropic_operator(g, a=1.0 + 0.5 * np.cos(g.axis()))
    op = replace(op, c=np.where(g.masks().inside, 0.8, 0.0))
    return op, constant_source(g, 1.0), constant_threshold(g, 1.0), 1.0


@pytest.mark.parametrize("name", ["1d", "2d-disc"])
def test_convection_free_form_skips_only_exact_zeros(name):
    op, src, thr, s = _convection_free_case(name)
    prob = _PenaltyProblem(op, src, thr, s, 0.1)
    assert not prob.convection and not np.any(prob.hb_at) and not np.any(prob.hdvec)
    rng = np.random.default_rng(4)
    u = rng.normal(size=prob.m)
    p = prob.grad(u)
    u *= 1.3 / np.max(np.sqrt(np.sum(p**2, axis=0)))
    p = prob.grad(u)
    u_box = lattice.scatter(u, prob.fft.nodes, prob.N)
    # weak_residual
    coeff = prob.flux_coeff(np.sqrt(np.sum(p**2, axis=0)))[1]
    flux = np.einsum("abN,bN->aN", prob.A_flat, p) + coeff[None] * p
    flux *= prob.hd
    ref = _weak_form_with_convection(prob, u, p, flux, u_box) - prob.rhs
    assert np.array_equal(prob.weak_residual(u, p, coeff), ref)
    # the linearization's apply
    lam, gain = _primal_multiplier(prob, p)
    assert np.any(gain > 0)
    apply = prob.linearization(p, lam, gain)
    C = prob.flux_derivative(p, lam, gain)
    C *= prob.hd
    v = rng.normal(size=prob.m)
    v_box = lattice.scatter(v, prob.fft.nodes, prob.N)
    pv = prob.fft.box_grad(v_box)
    assert np.array_equal(apply(v), _weak_form_with_convection(prob, v, pv, np.einsum("abN,bN->aN", C, pv), v_box))
    # _toeplitz
    C0 = prob.hd * np.array([[1.0, 0.2], [0.2, 0.7]])[: prob.d, : prob.d]
    ref = prob.fft.gram(C0)
    hdvec_at = prob.hdvec[:, prob.fft.nodes]
    for i, K in prob.fft.offset_rows(prob.fft.kern):
        for a in range(prob.d):
            ref[i] += (prob.hb_at[a, i, None] - hdvec_at[a]) * K[a]
    ref[np.diag_indices(prob.m)] += prob.hc_at
    assert np.array_equal(prob._toeplitz(C0), ref)


@pytest.fixture(scope="module")
def disc64_stage():
    """The solve-2d disc's problem at eps = 0.1, and (p, lam, gain) at its solution."""
    op, src, thr = _disc(64, None)
    sol = solve_fixed_eps(op, src, thr, 0.7, SolverConfig(eps=0.1))
    return _stage_point(op, src, thr, 0.1, sol)


def test_refresh_assembly_holds_one_dense_matrix_and_a_few_blocks(disc64_stage):
    import tracemalloc

    prob, point = disc64_stage
    assert prob.m == 793 and np.count_nonzero(point[1] > 0) >= 100
    tracemalloc.start()
    try:
        P = prob.jacobian(*point)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the rows G_S of all ~200 active nodes at once would take 10 blocks more,
    # and a symmetrization by J += J.T one more (m, m) array
    assert peak < P.nbytes + 6 * 8 * lattice._BLOCK_VALUES


# -- the refresh inverse by 2x2 blocks ------------------------------------------


def _definite(m, symmetric, seed=0):
    """A graded D (S + K) D with S = X X^T / m + I positive definite and K
    skew (zero if symmetric): the symmetric part is positive definite, as
    in a refresh for PCG (symmetric) or GMRES, and the grading of D puts
    the condition near 1e6, that of the transport-1d refreshes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, m))
    P = X @ X.T / m + np.eye(m)
    if not symmetric:
        Y = rng.normal(size=(m, m))
        P += Y - Y.T
    D = np.geomspace(1.0, 1e3, m)
    return D[:, None] * P * D[None, :]


LEAF = dense.BLOCK_LEAF


def _reference_block_inverse(P):
    """block_inverse's general path into a new array, as it was before it
    inverted in place: the same six products per level in the same order."""
    m = P.shape[0]
    if m <= LEAF:
        out = np.linalg.inv(P)
    else:
        k = m // 2
        P12 = P[:k, k:]
        Ai = _reference_block_inverse(P[:k, :k])
        X = P[k:, :k] @ Ai
        S = X @ P12
        np.subtract(P[k:, k:], S, out=S)
        Si = _reference_block_inverse(S)
        Y = Si @ X
        Z = Ai @ P12
        out = np.empty_like(P)
        out[:k, :k] = Z @ Y
        out[:k, :k] += Ai
        out[:k, k:] = Z @ Si
        np.negative(out[:k, k:], out=out[:k, k:])
        np.negative(Y, out=out[k:, :k])
        out[k:, k:] = Si
    return out


SIZES = [1, LEAF - 1, LEAF, LEAF + 1, 511, 793]


@pytest.mark.parametrize("symmetric", [True, False], ids=["spd", "nonsymmetric"])
@pytest.mark.parametrize("m", SIZES)
def test_block_inverse_is_as_accurate_as_numpy_inv(m, symmetric):
    P = _definite(m, symmetric, seed=m)
    eye = np.eye(m)

    def error(M):
        return np.max(np.abs(M @ P - eye))

    Q = P.copy()
    M = dense.block_inverse(Q, symmetric)
    assert M is Q  # in the storage of P
    assert error(M) <= 10 * error(np.linalg.inv(P))
    if symmetric:
        assert np.array_equal(M, M.T)  # as PCG needs


@pytest.mark.parametrize("m", SIZES)
def test_block_inverse_general_path_equals_the_out_of_place_one(m):
    # GMRES's preconditioner keeps its bits: the in-place path rounds as the
    # out-of-place one did
    P = _definite(m, False, seed=m)
    assert np.array_equal(dense.block_inverse(P.copy(), False), _reference_block_inverse(P))


def test_transport_refreshes_give_pcg_an_exactly_symmetric_inverse(monkeypatch):
    # A = 0: P is the Jacobian itself.  On transport-1d's second refresh the
    # general path's inverse was asymmetric at 3.4e-10 relative to max|M|.
    # The degenerate cold start inverts h^d G^T G first, in the same array
    inverses, arrays = [], []

    def recorded(P, symmetric):
        assert symmetric
        arrays.append(P)
        M = dense.block_inverse(P, symmetric)
        inverses.append(np.array_equal(M, M.T))
        return M

    monkeypatch.setattr(penalty, "block_inverse", recorded)
    g = grid_1d(256)
    op, src, thr = isotropic_operator(g, a=0.0), constant_source(g, 1.0), constant_threshold(g, 1.0)
    stages = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE, max_iters=200))
    assert all(sol.converged for _, sol, _ in stages)
    assert len(inverses) == 1 + sum(_count(sol.notes[1]) for _, sol, _ in stages) >= 2
    assert all(inverses)
    assert all(P is arrays[0] for P in arrays)


def _reference_symmetrized(J):
    """J made exactly symmetric in place, (J + J^T) / 2 a block of rows at a
    time: the averaging the weak form applied to its matrices before
    block_inverse's symmetric path took it over."""
    m = J.shape[0]
    rows = max(1, lattice._BLOCK_VALUES // m)
    for i0 in range(0, m, rows):
        i, rest = slice(i0, i0 + rows), slice(i0, None)
        mean = J[i, rest] + J[rest, i].T
        mean *= 0.5
        J[i, rest] = mean
        J[rest, i] = mean.T
    return J


def _assert_symmetrizes(P):
    """block_inverse's symmetric path, given P as assembled, inverts the
    mean of P and P^T exactly as an inverse of the averaged matrix would, and
    its inverse is exactly symmetric, as PCG needs."""
    assert not np.array_equal(P, P.T)
    M = dense.block_inverse(P.copy(), True)
    assert np.array_equal(M, M.T)
    assert np.array_equal(M, dense.block_inverse(_reference_symmetrized(P.copy()), True))


@pytest.mark.parametrize("m", [LEAF - 1, LEAF, LEAF + 1, 511])
def test_block_inverse_symmetrizes_the_matrix_it_is_given(m):
    _assert_symmetrizes(_definite(m, False, seed=m))


def test_block_inverse_symmetrizes_the_solve_2d_refreshes(monkeypatch):
    # the refresh matrices of the seed-0 solve-2d continuation, as assembled:
    # the Toeplitz P at u = 0 and the one with the active rows, both
    # asymmetric at FFT rounding
    refreshes = []
    inverse = dense.block_inverse

    def recorded(P, symmetric):
        refreshes.append(P.copy())
        return inverse(P, symmetric)

    monkeypatch.setattr(penalty, "block_inverse", recorded)
    stages = continuation_solve(*_disc(64, None), 0.7, SolverConfig(eps_schedule=SCHEDULE))
    assert all(sol.converged for _, sol, _ in stages)
    assert len(refreshes) == 2 and refreshes[0].shape == (793, 793)
    for P in refreshes:
        _assert_symmetrizes(P)


@pytest.mark.parametrize("kind", ["c", "anisotropic"])
@pytest.mark.parametrize("grid", [grid_1d(n=64), grid_2d(n=32)], ids=["1d", "2d-blocks"])
def test_block_inverse_symmetrizes_the_jacobian_at_zero(grid, kind):
    # the Toeplitz Jacobian comes out of the weak form as assembled
    prob = _zero_start_problem(grid, _constant_operator(grid, kind))
    p = prob.grad(np.zeros(prob.m))
    _assert_symmetrizes(prob.jacobian(p, *_primal_multiplier(prob, p)))


@pytest.mark.parametrize("m", [LEAF + 1, 511])
def test_block_inverse_raises_on_a_singular_or_non_finite_matrix(m):
    for symmetric in (True, False):
        with pytest.raises(np.linalg.LinAlgError):
            dense.block_inverse(np.ones((m, m)), symmetric)
        P = _definite(m, True)
        P[-1, -1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            dense.block_inverse(P, symmetric)


def test_block_inverse_frees_its_temporaries(disc64_stage):
    import tracemalloc

    prob, point = disc64_stage
    P = prob.jacobian(*point)
    for symmetric in (True, False):
        M = P.copy()
        tracemalloc.start()
        try:
            dense.block_inverse(M, symmetric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # in place, with two (m/2, m/2) blocks at a time: 0.53 x 8m^2 traced
        # here, where an inverse into a new array took 2.25
        assert np.max(np.abs(M @ P - np.eye(prob.m))) <= 1e-12
        assert peak <= 8 * prob.m**2, symmetric


def test_refresh_holds_one_dense_matrix(disc64_stage):
    import tracemalloc

    prob, point = disc64_stage
    tracemalloc.start()
    try:
        M = penalty._refreshed_inverse(prob, penalty._LaggedInverse(), *point, penalty._DAMPING)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Jacobian's assembly and its in-place inverse, each one
    # (m, m) array and a few blocks: 1.53 x 8m^2 traced here, where a
    # separate inverse took 3.25
    assert np.array_equal(M, M.T)
    assert peak <= 1.75 * 8 * prob.m**2


def test_a_second_refresh_reuses_the_first_ones_storage(disc64_stage):
    import tracemalloc

    prob, point = disc64_stage
    lagged = penalty._LaggedInverse()
    first = penalty._refreshed_inverse(prob, lagged, *point, penalty._DAMPING)
    values = first.copy()
    tracemalloc.start()
    try:
        M = penalty._refreshed_inverse(prob, lagged, *point, penalty._DAMPING)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # P is assembled over the first inverse, so the refresh allocates only
    # blocks: 0.53 x 8m^2 traced here, where a new (m, m) array took 1.53;
    # every entry is written again, so the inverse is the first one
    assert M is first and np.array_equal(M, values)
    assert peak <= 0.75 * 8 * prob.m**2


def _refresh_dampings(monkeypatch):
    """The damping of every refresh the solves after this call make."""
    dampings = []
    refreshed = penalty._refreshed_inverse

    def spied(prob, lagged, p, lam, gain, damping):
        dampings.append(damping)
        return refreshed(prob, lagged, p, lam, gain, damping)

    monkeypatch.setattr(penalty, "_refreshed_inverse", spied)
    return dampings


def test_a_krylov_step_that_misses_descent_is_taken_again_from_a_fresh_inverse(monkeypatch):
    # an ascent direction fails the line search at every t: the next step
    # must come from a fresh inverse at the same point and damping
    flipped, refreshes, points = [], [], []
    refreshed, pcg, linearization = penalty._refreshed_inverse, penalty.pcg, _PenaltyProblem.linearization

    def spied_refresh(prob, lagged, p, lam, gain, damping):
        refreshes.append((p, damping))
        return refreshed(prob, lagged, p, lam, gain, damping)

    def spied_linearization(self, p, lam, gain):
        points.append(p)
        return linearization(self, p, lam, gain)

    def ascent_once(*args):
        step, k = pcg(*args)
        if step is not None and not flipped:
            flipped.append((len(refreshes), points[-1]))
            step = -step
        return step, k

    monkeypatch.setattr(penalty, "_refreshed_inverse", spied_refresh)
    monkeypatch.setattr(_PenaltyProblem, "linearization", spied_linearization)
    monkeypatch.setattr(penalty, "pcg", ascent_once)
    # the first Krylov step of a cold start at eps = 0.1, far above the
    # rounding floor; at f = 2 the line search accepts the flipped step, as
    # the multiplier's part of the update is not flipped
    g, op, src, thr = torsion_setup(f=4.0)
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1))
    assert flipped and sol.converged
    # the refresh right after the flipped step is at the point it left
    # untouched, and keeps the damping
    i, p = flipped[0]
    assert len(refreshes) > i and np.array_equal(refreshes[i][0], p) and refreshes[i][1] == penalty._DAMPING


def test_a_failed_refresh_assembles_afresh_at_raised_damping(monkeypatch):
    # a singular leaf or a non-finite block leaves P partly overwritten: the
    # solve must not reuse it, but assemble P again with more damping
    failed, dampings = [], _refresh_dampings(monkeypatch)

    def failing_once(P, symmetric):
        if not failed:
            failed.append(True)
            P.fill(np.nan)
            raise np.linalg.LinAlgError("the block inverse is not finite")
        return dense.block_inverse(P, symmetric)

    monkeypatch.setattr(penalty, "block_inverse", failing_once)
    g, op, src, thr = torsion_setup()
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.01))
    assert failed and sol.converged and np.all(np.isfinite(sol.u.values))
    assert len(dampings) >= 2 and dampings[1] > dampings[0]
    assert _count(sol.notes[1]) == len(dampings)


def test_a_damping_rise_refreshes_at_once(monkeypatch):
    # with no step length allowed every line search fails, and every rise of
    # the damping must assemble J at the raised damping before any Krylov step
    dampings = _refresh_dampings(monkeypatch)
    monkeypatch.setattr(penalty, "_MIN_STEP", 2.0)
    g, op, src, thr = torsion_setup(n=64)
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1))
    assert sol.notes == ("stop=damping", "jacobians=9", "krylov=0")
    assert sol.iterations == 9
    assert dampings == pytest.approx([1e-11, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6], rel=1e-12)


def test_refresh_inverts_no_matrix_larger_than_the_leaf(monkeypatch):
    sizes = []
    inv = np.linalg.inv

    def counted(a):
        sizes.append(a.shape[0])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    g = grid_1d(256)
    transport = (isotropic_operator(g, a=0.0), constant_source(g, 1.0), constant_threshold(g, 1.0), 1.0)
    for op, src, thr, s in [transport, _disc(32, [0.5, -0.3]) + (0.7,)]:
        sizes.clear()
        stages = continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=SCHEDULE, max_iters=200))
        assert all(sol.converged for _, sol, _ in stages)
        assert sum(_count(sol.notes[1]) for _, sol, _ in stages) >= 1
        assert _PenaltyProblem(op, src, thr, s, 0.1).m > LEAF
        assert sizes and max(sizes) <= LEAF


def _count(note: str) -> int:
    return int(note.split("=")[1])


def test_solution_notes_name_the_stop_and_the_work(monkeypatch):
    g, op, src, thr = torsion_setup()
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.01))
    stop, jac, kry = sol.notes
    assert stop == "stop=converged"
    assert jac.startswith("jacobians=") and kry.startswith("krylov=")
    # a coercive cold start solves at eps = 0.01 directly: it assembles at
    # its first step and then lives mostly on the lagged inverse
    assert 1 <= _count(jac) < sol.iterations and _count(kry) > 0
    zero = solve_fixed_eps(op, constant_source(g, 0.0), thr, 1.0, SolverConfig(eps=0.1))
    assert zero.notes == ("stop=converged", "jacobians=0", "krylov=0")
    # the later stages of a continuation reuse the first stage's inverse
    stages = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=(0.1, 0.03, 0.01)))
    assert _count(stages[0][1].notes[1]) >= 1
    later = [sol for _, sol, _ in stages[1:]]
    assert sum(_count(sol.notes[1]) for sol in later) < sum(sol.iterations for sol in later)
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1, max_iters=2))
    assert sol.notes[0] == "stop=budget" and not sol.converged
    with monkeypatch.context() as patch:
        patch.setattr(penalty, "_MIN_STEP", 2.0)  # no trial step is ever taken
        sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1))
    assert sol.notes[0] == "stop=damping" and not sol.converged
    # stagnated, by a construction that rounding cannot decide: from u = 0
    # with a lagged inverse every step is a Krylov step, here cut to 3e-4 of
    # itself.  |D^s u| stays far below g, where the form is linear, so each
    # step cuts M by 0.03%: three times the line search's 1e-4, while 15 in
    # a row stay under the 1% that counts as progress, below a floor moved
    # up to the starting M
    lagged = _LaggedInverse()
    solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1), lagged=lagged)
    pcg = penalty.pcg

    def short(*args):
        step, k = pcg(*args)
        return (None if step is None else 3e-4 * step), k

    monkeypatch.setattr(penalty, "pcg", short)
    monkeypatch.setattr(penalty, "_FLOOR", 1.0)
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1), lagged=lagged)
    assert sol.notes[:2] == ("stop=stagnated", "jacobians=0") and sol.iterations == 15
    assert not sol.converged


@pytest.mark.parametrize("a, epsilons", [(1.0, [0.01]), (0.0, [0.1, 0.025, 0.01])], ids=["coercive", "degenerate"])
def test_only_a_degenerate_cold_start_walks_the_eps_chain(a, epsilons, monkeypatch):
    seen = []
    run_newton = penalty._run_newton

    def recorded(prob, *args):
        seen.append(prob.eps)
        return run_newton(prob, *args)

    monkeypatch.setattr(penalty, "_run_newton", recorded)
    g, op, src, thr = torsion_setup(f=1.0, a=a)
    sol = solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.01, max_iters=200))
    assert sol.converged and seen == epsilons


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


# -- a coercive form has no q-power term: first order in eps ------------------


def _against_pdhg(grid, s, f, g):
    """The a = 1 problem's continuation stages, each as (eps, report, weak
    lambda error, relative L2 error of u) against PDHG at tol 1e-10."""
    op, src, thr = isotropic_operator(grid, a=1.0), constant_source(grid, f), constant_threshold(grid, g)
    ref = pdhg_solve(op, src, thr, s, tol=1e-10)
    assert ref.converged
    out = []
    for eps, sol, rep in continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=SCHEDULE)):
        weak = _weak_lambda_error(sol.lam.values, ref.lam.values, grid, weak_battery(grid))
        u_err = np.linalg.norm(sol.u.values - ref.u.values) / np.linalg.norm(ref.u.values)
        out.append((eps, rep, weak, u_err))
    return out


@pytest.mark.parametrize(
    "grid",
    [GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5), grid_1d(n=256)],
    ids=["2d-disc-n32", "1d-n256"],
)
def test_coercive_stages_converge_at_first_order_in_eps(grid):
    # g = 4, f = 8: a q-power term would weigh eps |D^s u|^(q-2) ~ 4^(q-2)
    # eps here, far above the O(eps) error of the penalty alone
    stages = _against_pdhg(grid, 0.7, 8.0, 4.0)
    for (_, _, weak0, u0), (eps, _, weak1, u1) in zip(stages, stages[1:]):
        assert weak1 <= weak0 / 2.5 and u1 <= u0 / 2.5, eps
    assert stages[-1][2] <= 1e-3


def test_solve_2d_problem_meets_pdhg_at_the_last_stage():
    # the solve-2d benchmark problem: the limit system is the solved one
    grid = GridSpec(dim=2, box_side=4.0, points_per_axis=64, omega=ball(1.0), buffer=0.5)
    stages = _against_pdhg(grid, 0.7, 2.0, 1.0)
    assert all(rep.equation_residual == rep.penalized_residual_sup for _, rep, _, _ in stages)
    assert stages[-1][2] <= 1e-3


# -- degenerate transport: the cold start inside the constraint set -----------


def _max_ratio(prob, u):
    return float(np.max(np.sqrt(np.sum(prob.grad(u) ** 2, axis=0)) / prob.g_flat))


@pytest.mark.parametrize(
    "where, n, f, s",
    [("all", 128, 0.5, 0.7), ("all", 256, 1.0, 0.7), ("all", 512, 2.0, 0.7),
     ("x>0", 64, 2.0, 1.0), ("x>0", 128, 2.0, 0.7), ("x>0", 256, 1.0, 1.0), ("x>0", 512, 2.0, 0.7)],
)
def test_degenerate_cold_start_is_feasible_and_converges(where, n, f, s):
    # a = 0 on all of Omega: from u = 0 the Jacobian is damping only, and
    # each case stagnated at eps = 0.1.  a = 0 for x > 0: from the feasible
    # start, where r is small, the energy falls for many steps while |r|
    # rises, and each case stopped as stagnated when only |r| counted
    g = grid_1d(n)
    op = isotropic_operator(g, a=0.0 if where == "all" else np.where(g.axis() > 0, 0.0, 1.0))
    src, thr = constant_source(g, f), constant_threshold(g, 1.0)
    prob = _PenaltyProblem(op, src, thr, s, 0.1)
    u0, lam0 = _feasible_start(prob, _LaggedInverse())
    # |D^s u0| <= g, up to the rounding of the FFT that recomputes D^s u0
    assert np.any(u0) and _max_ratio(prob, u0) <= 1.0 + 1e-12
    # the constant multiplier 1/t* carries the s-Laplacian flux, which
    # balances the source: with A = 0 the weak residual vanishes
    assert np.all(lam0 == lam0[0]) and lam0[0] >= 1.0
    if where == "all":
        r = prob.weak_residual(u0, prob.grad(u0), lam0)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(prob.rhs)
    start = solve_fixed_eps(op, src, thr, s, SolverConfig(eps=0.1, max_iters=0))
    assert np.array_equal(start.u.values[g.masks().inside], u0)
    stages = continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=SCHEDULE, max_iters=200))
    assert all(sol.converged for _, sol, _ in stages)


def test_the_penalty_path_never_builds_the_gram_factor():
    # the factor of K^T K is PDHG's: a degenerate continuation, whose cold
    # start solves with the s-Laplacian, and its KKT reports leave it unbuilt
    g = grid_1d(128)
    op, src, thr = isotropic_operator(g, a=0.0), constant_source(g, 1.0), constant_threshold(g, 1.0)
    omega_fft.cache_clear()
    stages = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=SCHEDULE, max_iters=200))
    assert all(sol.converged for _, sol, _ in stages)
    assert "gram_factor_inverse" not in vars(omega_fft(g, 1.0))
    pdhg_solve(op, src, thr, 1.0, max_iters=1)
    assert "gram_factor_inverse" in vars(omega_fft(g, 1.0))


def test_nondegenerate_cold_start_stays_at_zero():
    g, op, src, thr = torsion_setup()
    assert not _PenaltyProblem(op, src, thr, 1.0, 0.1).degenerate
    assert not np.any(solve_fixed_eps(op, src, thr, 1.0, SolverConfig(eps=0.1, max_iters=0)).u.values)


def test_degenerate_transport_converges_under_mesh_refinement():
    bench = analytic_mk_1d(1.0)
    sups, weaks = [], []
    for n in (512, 1024, 2048):
        g = grid_1d(n)
        op = isotropic_operator(g, a=0.0)
        stages = continuation_solve(
            op, constant_source(g, 1.0), constant_threshold(g, 1.0), 1.0,
            SolverConfig(eps_schedule=SCHEDULE, max_iters=200),
        )
        assert all(sol.converged for _, sol, _ in stages), n
        sol = stages[-1][1]
        u_ex, lam_ex = bench.sample(g)
        sups.append(float(np.max(np.abs(sol.u.values - u_ex.values))))
        weaks.append(_weak_lambda_error(sol.lam.values, lam_ex.values, g, weak_battery(g)))
    assert sups[0] > sups[1] > sups[2] and sups[0] <= 1e-2, sups
    # at fixed eps = 1e-3 the weak-lambda error grows slowly with n
    # (about 2.0e-3 to 2.4e-3), so it is bounded, not required to decrease
    assert max(weaks) <= 1e-2, weaks


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("s", [0.7, 1.0])
@pytest.mark.parametrize("where", ["all", "x>0"])
def test_degenerate_transport_converges_on_a_disc(where, s, n):
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=n, omega=ball(1.0), buffer=0.5)
    op = isotropic_operator(g, a=0.0 if where == "all" else np.where(g.coords()[0] > 0, 0.0, 1.0))
    src, thr = constant_source(g, 1.0), constant_threshold(g, 1.0)
    stages = continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=SCHEDULE, max_iters=200))
    assert all(sol.converged for _, sol, _ in stages)
    rep = stages[-1][2]
    assert rep.violation_sup <= np.sqrt(SCHEDULE[-1]) and rep.v_measure == 0.0


def test_degenerate_sweep_converges_within_its_newton_budget():
    # README's 1D degenerate sweep of 80 cases, with a = 0 on all of Omega or
    # only for x > 0: 1875 Newton steps with the feasible start
    failed, steps = [], 0
    for n in (32, 64, 128, 256, 512):
        g = grid_1d(n)
        thr = constant_threshold(g, 1.0)
        for where, a in (("all", 0.0), ("x>0", np.where(g.axis() > 0, 0.0, 1.0))):
            op = isotropic_operator(g, a=a)
            for f in (0.5, 1.0, 1.5, 2.0):
                for s in (0.7, 1.0):
                    try:
                        stages = continuation_solve(
                            op, constant_source(g, f), thr, s, SolverConfig(eps_schedule=SCHEDULE, max_iters=200)
                        )
                    except RuntimeError as exc:
                        failed.append((n, where, f, s, str(exc)))
                        continue
                    steps += sum(sol.iterations for _, sol, _ in stages)
    assert failed == []
    assert steps <= 2000, steps


def test_feasible_start_never_holds_two_dense_matrices():
    import tracemalloc

    # the solve-2d geometry with a = 0
    g = grid_2d(n=64)
    prob = _PenaltyProblem(isotropic_operator(g, a=0.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 0.7, 0.1)
    assert prob.m == 793
    tracemalloc.start()
    try:
        lagged = _LaggedInverse()
        u0, lam0 = _feasible_start(prob, lagged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _max_ratio(prob, u0) <= 1.0 + 1e-12
    # h^d G^T G is assembled and inverted in the continuation's storage, one
    # m x m array (5 MB), with two (m/2, m/2) blocks at a time: 1.53 x 8m^2
    # traced here, where np.linalg.solve's copy took 1.77
    assert lagged.inv is None and lagged.storage.shape == (prob.m, prob.m)
    assert peak < 1.6 * 8 * prob.m**2
    p = prob.grad(u0)
    gain = prob.multiplier_equation(np.sqrt(np.sum(p**2, axis=0)), lam0)[2]
    assert penalty._refreshed_inverse(prob, lagged, p, lam0, gain, penalty._DAMPING) is lagged.storage
