"""Analytic benchmarks and the independent PDHG / dual-ascent solvers."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from fracmk import GridSpec, ball, interval
from fracmk.forms import OperatorData, constant_source, constant_threshold, isotropic_operator
from fracmk.oracle import (
    _energy_matrix,
    _feasible_scaling,
    _quadratic_pieces,
    analytic_mk_1d,
    analytic_torsion_1d,
    brute_force_qp,
    pdhg_solve,
)
from fracmk.dense import BLOCK_LEAF, tril_inverse
from fracmk.lattice import OmegaFFT, WeakForm, omega_fft
from fracmk import lattice, penalty
from fracmk.penalty import SolverConfig, continuation_solve


def grid_1d(n=128, L=4.0):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=0.6)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def linear_solve(op, src, s):
    """The unconstrained minimizer on the Omega nodes, and the nodes' indices."""
    prob = _quadratic_pieces(op, src, s)
    return np.linalg.solve(_energy_matrix(prob), prob.rhs), prob.fft.nodes


# -- the quadratic pieces: Q is the penalty's form matrix ------------------------


def _dense_gradient(fft):
    """K, the dense D^s of the Omega-node basis, (d N, m), from the columns
    G e_j: the reference the oracles' FFT and kernel-row products must match."""
    K = np.empty((fft.d * fft.N, fft.nodes.size))
    for j, P in fft.column_blocks():
        K[:, j] = P.reshape(P.shape[0], -1).T
    return K


def _has_degenerate_node(op):
    """Whether A = 0 and c = 0 at some Omega node, read off op itself."""
    inside = op.grid.masks().inside
    zero_A = np.all(op.A[:, :, inside] == 0.0, axis=(0, 1))
    return bool(np.any(zero_A & (op.c[inside] == 0.0)))


def _reference_quadratic(op, s):
    """Q as a loop of its own: h^d (G^T A G + diag(c)), a block of columns
    G e_j at a time through the FFT adjoint, plus the mass ridge of a
    degenerate operator."""
    grid = op.grid
    fft = omega_fft(grid, s)
    d, N, m = grid.dim, fft.N, fft.nodes.size
    A = op.A.reshape(d, d, N)
    Q = np.empty((m, m))
    for j, P in fft.column_blocks():
        Q[:, j] = fft.adjoint(np.einsum("abN,kbN->kaN", A, P)).T
    Q[np.diag_indices_from(Q)] += op.c.ravel()[fft.nodes]
    Q *= grid.cell_volume
    if _has_degenerate_node(op):
        Q[np.diag_indices_from(Q)] += 1e-8 * grid.cell_volume
    return Q


def _oracle_operator(grid, kind):
    """Symmetric convex operators: A constant, A varying and anisotropic, A = 0
    for x > 0 or everywhere (degenerate, so Q gets the mass ridge), and A = 1
    with c > 0."""
    x = grid.coords()
    if kind == "constant":
        return isotropic_operator(grid, a=1.0)
    if kind == "degenerate":
        return isotropic_operator(grid, a=0.0)
    if kind == "half-degenerate":
        return isotropic_operator(grid, a=np.where(x[0] > 0, 0.0, 1.0))
    if kind == "c>0":
        return isotropic_operator(grid, a=1.0, c=np.where(grid.masks().inside, 0.8, 0.0))
    d, shp = grid.dim, grid.shape
    A = np.zeros((d, d) + shp)
    for j in range(d):
        A[j, j] = 1.0 + 0.3 * x[j] ** 2
    if d == 2:
        A[0, 1] = A[1, 0] = 0.4 * np.sin(x[0] + x[1])
    zero_v = np.zeros((d,) + shp)
    return OperatorData(grid, A, zero_v, zero_v, np.zeros(shp))


@pytest.mark.parametrize("kind", ["constant", "anisotropic", "half-degenerate", "c>0"])
@pytest.mark.parametrize(
    "grid",
    [grid_1d(64), GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=ball(1.0), buffer=0.5)],
    ids=["1d", "disc"],
)
def test_quadratic_pieces_q_matches_the_column_loop(grid, kind, monkeypatch):
    op = _oracle_operator(grid, kind)
    s = 0.7
    ref = _reference_quadratic(op, s)
    calls = []
    adjoint = OmegaFFT.adjoint

    def counted(self, w):
        calls.append(w.shape)
        return adjoint(self, w)

    monkeypatch.setattr(OmegaFFT, "adjoint", counted)
    prob = _quadratic_pieces(op, constant_source(grid, 1.0), s)
    Q = _energy_matrix(prob)
    assert prob.degenerate == (kind == "half-degenerate")
    assert np.linalg.norm(Q - ref) <= 1e-12 * np.linalg.norm(ref)
    # a constant A takes the Toeplitz route: the only adjoint is the rhs's
    rhs_call = [(grid.dim, np.prod(grid.shape))]
    if kind in ("constant", "c>0"):
        assert calls == rhs_call
    else:
        assert len(calls) == 1 + sum(1 for _ in omega_fft(grid, s).column_blocks())


@pytest.mark.parametrize("c_right", [0.0, 0.5], ids=["c=0", "c=0.5 for x>0"])
def test_energy_matrix_without_a_principal_part_is_the_c_term(c_right, monkeypatch):
    # A = 0 on the whole box: Q is diag(h^d c) plus the ridge, exactly what
    # the column route assembles, with no column of D^s formed
    grid = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    c = np.where(grid.masks().inside & (grid.coords()[0] > 0), c_right, 0.0)
    prob = _quadratic_pieces(isotropic_operator(grid, a=0.0, c=c), constant_source(grid, 1.0), 0.7)
    ref = prob.form_matrix(prob.A_flat)
    ref[np.diag_indices_from(ref)] += 1e-8 * prob.hd
    monkeypatch.setattr(OmegaFFT, "column_blocks", None)
    Q = _energy_matrix(prob)
    assert prob.degenerate and np.array_equal(Q, ref)


@pytest.mark.parametrize(
    "grid",
    [grid_1d(64), GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=ball(1.0), buffer=0.5)],
    ids=["1d", "disc"],
)
def test_active_rows_add_the_dense_gram_at_those_nodes(grid):
    # the QP's inner matrix Q + h^d K^T diag(lam) K and the refresh's active
    # part read the rows of D^s off the kernel; C off S must not enter
    prob = _quadratic_pieces(isotropic_operator(grid, a=1.0), constant_source(grid, 1.0), 0.7)
    Q, K = _energy_matrix(prob), _dense_gradient(prob.fft)
    d, N = prob.d, prob.N
    rng = np.random.default_rng(3)
    X = rng.normal(size=(d, d, N))
    C = np.einsum("abN,cbN->acN", X, X)
    S = np.flatnonzero(rng.random(N) < 0.3)
    on_S = np.zeros(N)
    on_S[S] = 1.0
    Ka = K.reshape(d, N, -1)
    ref = Q + prob.hd * sum(Ka[a].T @ ((C[a, b] * on_S)[:, None] * Ka[b]) for a in range(d) for b in range(d))
    got = prob.add_active_rows(Q.copy(), C, S)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    # the QP's multiplier weighs both components alike: C = lam I
    lam = rng.random(N) * on_S
    ref = Q + prob.hd * (K.T @ (np.tile(lam, d)[:, None] * K))
    got = prob.add_active_rows(Q.copy(), np.eye(d)[..., None] * lam, np.flatnonzero(lam > 0))
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "solver, budget", [(pdhg_solve, "max_iters"), (brute_force_qp, "max_outer")], ids=["pdhg", "qp"]
)
def test_oracles_hold_no_dense_gradient(solver, budget):
    # the dense D^s of the 2D n=32 disc, (d N, m), is 3.2 MB: each oracle's
    # traced peak stays below it, the operator's own arrays cached beforehand
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 0.7)
    fft = omega_fft(g, 0.7)
    solver(*args, **{budget: 1})
    tracemalloc.start()
    try:
        sol = solver(*args, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < 8 * fft.d * fft.N * fft.nodes.size


@pytest.mark.parametrize("solver", [pdhg_solve, brute_force_qp], ids=["pdhg", "qp"])
def test_oracles_refuse_an_energy_matrix_past_the_size_guard(solver):
    # the 2D n=256 disc has m = 12849 nodes: its (m, m) Q would take 1.3 GB,
    # past the 6e7-entry guard, which raises before any (m, m) array exists
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=256, omega=ball(1.0), buffer=0.5)
    args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 0.7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense energy matrix"):
            solver(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


# -- analytic benchmarks ---------------------------------------------------------


def test_torsion_parameter_validation():
    with pytest.raises(ValueError):
        analytic_torsion_1d(0.0, 1.0)
    with pytest.raises(ValueError):
        analytic_torsion_1d(1.0, -2.0)
    with pytest.raises(ValueError):
        analytic_mk_1d(0.0)


def test_torsion_elastic_regime():
    a0 = 1.0
    bench = analytic_torsion_1d(a0, a0 / 2)
    x = np.linspace(-0.999, 0.999, 1001)
    assert np.all(bench.lam(x) == 0.0)
    assert np.max(np.abs(bench.uprime(x))) <= 0.5 + 1e-12
    # parabola value
    assert bench.u(np.array([0.0]))[0] == pytest.approx(0.25)


def test_torsion_plastic_regime_frozen_values():
    # f = 2 a0: plastic region |x| > 1/2; lambda(3/4) = a0/2 per the formula
    # lambda = (f|x| - a0)^+, confirmed against the QP oracle below
    a0 = 1.0
    bench = analytic_torsion_1d(a0, 2 * a0)
    assert bench.lam(np.array([0.75]))[0] == pytest.approx(0.5 * a0, rel=1e-14)
    assert bench.lam(np.array([0.49]))[0] == 0.0
    assert bench.lam(np.array([0.51]))[0] > 0.0
    x = np.linspace(-0.999, 0.999, 1001)
    assert np.max(np.abs(bench.uprime(x))) <= 1.0 + 1e-12
    assert bench.u(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-14)


def test_benchmarks_satisfy_their_pde_by_substitution():
    # the flux (a0 + lambda) u' equals -f x in both regimes, which encodes
    # -((a0+lambda)u')' = f distributionally; verified nodewise to 1e-12
    x = np.linspace(-0.999, 0.999, 2001)
    for bench in (analytic_torsion_1d(1.0, 0.5), analytic_torsion_1d(1.0, 2.0), analytic_mk_1d(1.0)):
        flux = bench.flux(x)
        assert np.max(np.abs(flux + bench.f * x)) <= 1e-12
        # complementarity holds pointwise exactly
        comp = bench.lam(x) * (np.abs(bench.uprime(x)) - 1.0)
        assert np.max(np.abs(comp)) <= 1e-12


def test_mk_distance_potential_values():
    bench = analytic_mk_1d(1.0)
    assert bench.u(np.array([0.0]))[0] == 1.0
    assert bench.u(np.array([1.0]))[0] == 0.0
    assert bench.u(np.array([-1.0]))[0] == 0.0
    assert bench.lam(np.array([0.5]))[0] == pytest.approx(0.5)


# -- pdhg -------------------------------------------------------------------------


def test_pdhg_zero_source():
    g = grid_1d(64)
    op = isotropic_operator(g, a=1.0)
    sol = pdhg_solve(op, constant_source(g, 0.0), constant_threshold(g, 1.0), 1.0, tol=1e-10)
    assert np.max(np.abs(sol.u.values)) <= 1e-10


def _unsupported_operator(kind):
    """(grid, operator) outside the oracles' symmetric convex case."""
    g = grid_1d(64)
    rand = np.where(g.masks().inside, np.random.default_rng(0).normal(size=g.shape), 0.0)
    if kind == "b":
        return g, isotropic_operator(g, a=1.0, b=rand[None])
    if kind == "dvec":
        return g, isotropic_operator(g, a=1.0, dvec=rand[None])
    if kind == "c<0":
        return g, isotropic_operator(g, a=1.0, c=-np.abs(rand))
    # A = [[1, 0.5], [-0.5, 1]] on a disc: asymmetric, with the symmetric part I
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=ball(1.0), buffer=0.5)
    A = np.zeros((2, 2) + g.shape)
    A[0, 0] = A[1, 1] = 1.0
    A[0, 1], A[1, 0] = 0.5, -0.5
    zero_v = np.zeros((2,) + g.shape)
    return g, OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))


@pytest.mark.parametrize("solver", [pdhg_solve, brute_force_qp], ids=["pdhg", "qp"])
@pytest.mark.parametrize("kind", ["b", "dvec", "asymmetric-A", "c<0"])
def test_pdhg_rejects_nonsymmetric_input(kind, solver):
    g, op = _unsupported_operator(kind)
    with pytest.raises(ValueError, match="oracle solvers require"):
        solver(op, constant_source(g, 1.0), constant_threshold(g, 1.0), 1.0)


def test_pdhg_unconstrained_matches_linear_solve():
    g = grid_1d(128)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1e3)  # never active
    sol = pdhg_solve(op, src, thr, 1.0, tol=0.0, max_iters=50)
    u_lin, unk = linear_solve(op, src, 1.0)
    assert rel_l2(sol.u.values.ravel()[unk], u_lin) <= 1e-8
    assert np.max(np.abs(sol.lam.values)) == 0.0
    # tol = 0 runs the whole budget
    assert sol.notes == ("stop=budget",)


def test_pdhg_matches_analytic_torsion():
    g = grid_1d(512)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1.0)
    sol = pdhg_solve(op, src, thr, 1.0, tol=1e-8)
    # perfbench's oracle-pdhg case: the gap reads 1.9e-4 at iteration 10,
    # 3.3e-6 at 15, 5.9e-8 at 20 and 1.1e-9 at 25, where the check every
    # 5th iteration certifies it, 25 iterations before the 50th
    assert sol.converged and sol.notes == ("stop=certified",)
    assert sol.iterations == 25
    u_ex = analytic_torsion_1d(1.0, 2.0).sample(g)[0]
    assert np.max(np.abs(sol.u.values - u_ex.values)) <= 1e-3


def _reference_pdhg(op, src, thr, s, tol=1e-8, max_iters=200_000, step_ratio=10.0):
    """The PDHG loop in the u basis with the primal metric K^T K / tau, with
    per-iteration solves on the Cholesky factors of K^T K + tau Q and Q,
    independent of pdhg_solve's generalized eigenbasis of (Q, K^T K); returns
    (u on Omega, iterations, the gap of that u)."""
    prob = _quadratic_pieces(op, src, s)
    Q, rhs, K = _energy_matrix(prob), prob.rhs, _dense_gradient(prob.fft)
    g_flat = thr.g.ravel()
    d, N, m = op.grid.dim, g_flat.size, rhs.size
    tau = step_ratio / np.sqrt(op.grid.cell_volume)
    sigma = 0.9 / tau
    KtK = K.T @ K
    M = np.linalg.cholesky(KtK + tau * Q)
    Qchol = np.linalg.cholesky(Q)

    def mag(y):
        return np.sqrt(np.sum(y.reshape(d, N) ** 2, axis=0))

    def feasible_and_gap(u, y):
        uf = _feasible_scaling(mag(K @ u), g_flat) * u
        primal = 0.5 * float(uf @ (Q @ uf)) - float(rhs @ uf)
        t = np.linalg.solve(Qchol, rhs - K.T @ y)
        return uf, primal, primal - (-0.5 * float(t @ t) - float(np.sum(g_flat * mag(y))))

    u, ubar, y = np.zeros(m), np.zeros(m), np.zeros(d * N)
    it = 0
    while it < max_iters:
        it += 1
        ytil = y + sigma * (K @ ubar)
        shrink = np.maximum(0.0, 1.0 - sigma * g_flat / np.maximum(mag(ytil), 1e-300))
        y = (ytil.reshape(d, N) * shrink[None]).reshape(d * N)
        u_old = u
        u = np.linalg.solve(M.T, np.linalg.solve(M, KtK @ u - tau * (K.T @ y) + tau * rhs))
        ubar = 2 * u - u_old
        # pdhg_solve's schedule: every 5th iteration through the 50th, then every 50th
        if it % (5 if it <= 50 else 50) == 0:
            _, primal, gap = feasible_and_gap(u, y)
            if tol > 0 and gap <= tol * (1.0 + abs(primal)):
                break
    uf, _, gap = feasible_and_gap(u, y)
    return uf, it, gap


@pytest.mark.parametrize(
    "dim, n, kind, f, s",
    [
        (1, 128, "constant", 2.0, 1.0),
        (1, 64, "constant", 2.0, 0.7),
        (1, 32, "degenerate", 1.0, 1.0),
        (2, 16, "constant", 2.0, 0.7),
        (1, 64, "c>0", 2.0, 0.7),
        (1, 64, "anisotropic", 2.0, 0.7),
        (2, 16, "c>0", 4.0, 0.7),
        (2, 16, "anisotropic", 2.0, 0.7),
    ],
    ids=[
        "torsion-s1-n128",
        "torsion-s0.7-n64",
        "degenerate-a0-n32",
        "disc-s0.7-n16",
        "c>0-s0.7-n64",
        "anisotropic-s0.7-n64",
        "disc-c>0-f4-s0.7-n16",
        "disc-anisotropic-s0.7-n16",
    ],
)
def test_pdhg_matches_per_iteration_solves(dim, n, kind, f, s):
    # the generalized eigenbasis of (Q, K^T K) changes only the rounding of
    # each prox step and dual value: the gap checks stop at the same
    # iteration and u agrees to rounding level.  A constant A = I with c = 0
    # takes the trivial pencil (no Q, no eigh); the other kinds take eigh
    g = grid_1d(n) if dim == 1 else GridSpec(dim=2, box_side=4.0, points_per_axis=n, omega=ball(1.0), buffer=0.5)
    op = _oracle_operator(g, kind)
    src, thr = constant_source(g, f), constant_threshold(g, 1.0)
    sol = pdhg_solve(op, src, thr, s, tol=1e-8)
    u_ref, iters, _ = _reference_pdhg(op, src, thr, s, tol=1e-8)
    assert sol.converged
    assert sol.iterations == iters
    assert rel_l2(sol.u.values.ravel()[g.masks().inside.ravel()], u_ref) <= 1e-12
    assert sol.notes == ("stop=certified",) + (("mass-ridge-1e-8",) if kind == "degenerate" else ())


def test_pdhg_reports_the_gap_of_the_point_it_returns():
    # a budget of 73 ends 23 iterations past the check at 50: the returned
    # residual_norm is the gap of the returned u, not of the check's
    g = grid_1d(64)
    args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 0.7)
    sol = pdhg_solve(*args, tol=0.0, max_iters=73)
    u_ref, iters, gap = _reference_pdhg(*args, tol=0.0, max_iters=73)
    assert sol.iterations == iters == 73 and sol.notes == ("stop=budget",)
    assert rel_l2(sol.u.values.ravel()[g.masks().inside.ravel()], u_ref) <= 1e-12
    assert sol.residual_norm == pytest.approx(gap, rel=1e-6)
    assert sol.residual_norm < 0.5 * pdhg_solve(*args, tol=0.0, max_iters=50).residual_norm


@pytest.mark.parametrize("solver, budget", [(pdhg_solve, "max_iters"), (brute_force_qp, "max_outer")], ids=["pdhg", "qp"])
@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_oracles_reject_a_tol_that_is_not_finite_and_nonnegative(solver, budget, tol):
    # a nan or negative tol would run the whole budget, and an infinite one
    # would certify any first gap
    g = grid_1d(64)
    args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 1.0)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        solver(*args, tol=tol, **{budget: 100})
    # tol = 0 is the whole-budget run
    sol = solver(*args, tol=0.0, **{budget: 30})
    assert sol.iterations == 30 and sol.notes == ("stop=budget",)


def _spy(calls, name, fn):
    """fn, appending name to calls at each call."""

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("kind", ["constant", "c>0"])
def test_pdhg_sets_up_a_trivial_pencil_without_q_or_eigh(kind, monkeypatch):
    # A = I and c = 0 give Q = h^d K^T K: mu = h^d and V = L^-T need no Q, no
    # eigh and no solve; c > 0 makes the pencil general, with one eigh
    g = grid_1d(64)
    op = _oracle_operator(g, kind)
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", _spy(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "solve", _spy(calls, "solve", np.linalg.solve))
    monkeypatch.setattr(WeakForm, "form_matrix", _spy(calls, "form_matrix", WeakForm.form_matrix))
    sol = pdhg_solve(op, constant_source(g, 2.0), constant_threshold(g, 1.0), 0.7, tol=1e-8)
    assert sol.converged
    assert calls == ([] if kind == "constant" else ["form_matrix", "eigh"])


def _disc(n):
    return GridSpec(dim=2, box_side=4.0, points_per_axis=n, omega=ball(1.0), buffer=0.5)


@pytest.mark.parametrize("kind", ["constant", "diag(2, 0.5)", "c>0"])
def test_a_warm_pdhg_setup_reuses_the_gram_factor(kind, monkeypatch):
    # the factor of K^T K depends on (grid, s) alone: the first solve on a
    # fresh cache factors it, later ones read it, on the trivial pencil
    # (A = I) and on general ones, and their iterates do not change
    g = _disc(16)
    if kind == "diag(2, 0.5)":
        A = np.diag([2.0, 0.5]).reshape(2, 2, 1, 1) * np.ones(g.shape)
        zero_v = np.zeros((2,) + g.shape)
        op = OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))
    else:
        op = _oracle_operator(g, kind)
    args = (op, constant_source(g, 2.0), constant_threshold(g, 1.0), 0.7)
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", _spy(calls, "cholesky", np.linalg.cholesky))
    monkeypatch.setattr(lattice, "tril_inverse", _spy(calls, "tril_inverse", lattice.tril_inverse))
    omega_fft.cache_clear()
    cold = pdhg_solve(*args, tol=1e-8)
    assert calls == ["cholesky", "tril_inverse"]
    warm = pdhg_solve(*args, tol=1e-8)
    assert calls == ["cholesky", "tril_inverse"]
    assert warm.converged and warm.iterations == cold.iterations
    assert np.array_equal(warm.u.values, cold.u.values) and np.array_equal(warm.lam.values, cold.lam.values)


@pytest.mark.parametrize(
    "grid, s", [(grid_1d(512), 1.0), (_disc(32), 0.7)], ids=["1d-n512-s1", "disc-n32-s0.7"]
)
def test_the_gram_factor_is_a_read_only_inverse_cholesky_factor(grid, s):
    Li = omega_fft(grid, s).gram_factor_inverse
    assert omega_fft(grid, s).gram_factor_inverse is Li
    assert not Li.flags.writeable
    with pytest.raises(ValueError):
        Li[0, 0] = 1.0
    assert not np.any(np.triu(Li, 1))
    eye = np.eye(omega_fft(grid, s).nodes.size)
    assert np.linalg.norm(Li @ omega_fft(grid, s).gram(np.eye(grid.dim)) @ Li.T - eye) <= 1e-10 * np.linalg.norm(eye)


def test_the_process_holds_one_gram_factor_at_a_time():
    # the factor lives on the one cached operator: any solve on another
    # (grid, s), a penalty continuation too, frees it with that operator
    g = grid_1d(64)
    args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0))
    omega_fft.cache_clear()
    pdhg_solve(*args, 1.0, max_iters=1)
    first = weakref.ref(omega_fft(g, 1.0).gram_factor_inverse)
    continuation_solve(*args, 0.7, SolverConfig(eps_schedule=(0.1, 0.01)))
    gc.collect()
    assert first() is None
    assert omega_fft.cache_info().currsize == 1


def test_a_warm_trivial_pencil_solve_holds_no_dense_matrix():
    # perfbench's oracle-pdhg problem: with the factor cached, V = L^-T is a
    # view of it, so the setup allocates no (m, m) array
    g = grid_1d(512)
    args = (isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0), 1.0)
    m = omega_fft(g, 1.0).nodes.size
    pdhg_solve(*args, tol=1e-8)
    tracemalloc.start()
    try:
        sol = pdhg_solve(*args, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < 0.5 * 8 * m**2


@pytest.mark.parametrize("m", [1, BLOCK_LEAF - 1, BLOCK_LEAF, BLOCK_LEAF + 1, 255])
def test_tril_inverse_matches_numpy_inv(m):
    # the Cholesky factor of D S D, for S = X X^T + m I and a graded diagonal
    # D: its rows outweigh its diagonal, so an LU inverse pivots and leaves
    # rounding above the diagonal
    rng = np.random.default_rng(m)
    X = rng.normal(size=(m, m))
    L = np.geomspace(1.0, 10.0, m)[:, None] * np.linalg.cholesky(X @ X.T + m * np.eye(m))
    Li = L.copy()
    assert tril_inverse(Li) is Li  # in the storage of L
    ref = np.linalg.inv(L)
    assert np.linalg.norm(Li - ref) <= 1e-13 * np.linalg.norm(ref)
    assert not np.any(np.triu(Li, 1))


def test_pdhg_certifies_fully_degenerate_transport():
    # A = 0 everywhere: Q is the 1e-8 mass ridge alone, and the step
    # tau = 10 / sqrt(h^d) does not depend on it
    g = grid_1d(256)
    src = constant_source(g, 1.0)
    sol = pdhg_solve(isotropic_operator(g, a=0.0), src, constant_threshold(g, 1.0), 1.0, tol=1e-8)
    # it certifies past iteration 50, where the gap is checked every 50th
    assert sol.converged
    assert 50 < sol.iterations <= 200 and sol.iterations % 50 == 0
    bench = analytic_mk_1d(1.0)
    assert np.max(np.abs(sol.u.values - bench.sample(g)[0].values)) <= g.spacing
    x = g.axis()
    assert sol.lam.values[np.argmin(np.abs(x - 0.5))] == pytest.approx(0.5, abs=0.05)


def test_pdhg_handles_a_partially_degenerate_operator():
    # A = 0 on the right half of the box, c = 0: Q is singular without the
    # mass ridge; PDHG certifies its gap and agrees with the penalty path
    g = grid_1d(64)
    op = isotropic_operator(g, a=np.where(g.axis() > 0, 0.0, 1.0))
    src, thr = constant_source(g, 1.0), constant_threshold(g, 1.0)
    pd = pdhg_solve(op, src, thr, 1.0, tol=1e-8)
    assert pd.converged
    assert pd.notes == ("stop=certified", "mass-ridge-1e-8")
    pen = continuation_solve(op, src, thr, 1.0, SolverConfig(eps_schedule=(0.1, 0.03, 0.01, 3e-3, 1e-3)))[-1][1]
    assert rel_l2(pen.u.values, pd.u.values) <= 1e-3
    # a mass term c > 0 on Omega keeps Q definite: no ridge
    c = np.where(g.masks().inside, 1.0, 0.0)
    assert not _quadratic_pieces(isotropic_operator(g, a=0.0, c=c), src, 1.0).degenerate


def test_pdhg_names_a_form_that_is_not_positive_definite():
    # the nonnegativity check on A tolerates -1e-12; such an A is not
    # degenerate (no ridge), and Q is negative definite
    g = grid_1d(32)
    op = isotropic_operator(g, a=-1e-13)
    with pytest.raises(ValueError, match="not strictly convex") as err:
        pdhg_solve(op, constant_source(g, 1.0), constant_threshold(g, 1.0), 1.0)
    assert not isinstance(err.value, np.linalg.LinAlgError)


# -- brute-force QP ---------------------------------------------------------------


def test_qp_unconstrained_matches_linear_solve_exactly():
    g = grid_1d(64)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1e3)
    sol = brute_force_qp(op, src, thr, 1.0, tol=1e-10)
    u_lin, unk = linear_solve(op, src, 1.0)
    # with the constraint never active the first inner solve is already exact
    assert rel_l2(sol.u.values.ravel()[unk], u_lin) <= 1e-12


def test_qp_torsion_matches_closed_form_to_order_h():
    g = grid_1d(64)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1.0)
    sol = brute_force_qp(op, src, thr, 1.0, tol=1e-8)
    assert sol.converged and sol.notes == ("stop=certified",)
    u_ex = analytic_torsion_1d(1.0, 2.0).sample(g)[0]
    assert np.max(np.abs(sol.u.values - u_ex.values)) <= 2 * g.spacing


@pytest.mark.parametrize("s", [0.9, 1.0])
def test_qp_checks_its_gap_after_every_accepted_step(s):
    # the gap is checked after every accepted step, so 1D n=64 torsion
    # certifies at outer iteration 16 for both s
    g = grid_1d(64)
    op, src, thr = isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0)
    sol = brute_force_qp(op, src, thr, s, tol=1e-8)
    assert sol.notes == ("stop=certified",)
    assert sol.iterations <= 20


def test_qp_multiplier_matches_transport_density():
    # flux balance gives lambda(1/2) = f/2 for the degenerate benchmark
    g = grid_1d(64)
    op = isotropic_operator(g, a=0.0)
    src = constant_source(g, 1.0)
    thr = constant_threshold(g, 1.0)
    sol = brute_force_qp(op, src, thr, 1.0, tol=1e-6, max_outer=120_000)
    x = g.axis()
    lam_half = sol.lam.values[np.argmin(np.abs(x - 0.5))]
    assert lam_half == pytest.approx(0.5, abs=0.05)
    bench = analytic_mk_1d(1.0)
    assert np.max(np.abs(sol.u.values - bench.sample(g)[0].values)) <= 3 * g.spacing


def test_qp_names_why_it_stopped_on_a_partially_degenerate_operator():
    # A = 0 on the right half of the box, c = 0: the QP does not certify its
    # gap within a short budget, and says so
    g = grid_1d(64)
    op = isotropic_operator(g, a=np.where(g.axis() > 0, 0.0, 1.0))
    sol = brute_force_qp(op, constant_source(g, 1.0), constant_threshold(g, 1.0), 1.0, tol=1e-8, max_outer=200)
    assert not sol.converged
    assert sol.iterations == 200
    assert sol.notes == ("stop=budget", "mass-ridge-1e-8")


def test_qp_matches_pdhg_in_2d():
    # two gradient components: the QP's multiplier weighs both alike
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=ball(1.0), buffer=0.5)
    op, src, thr = isotropic_operator(g, a=1.0), constant_source(g, 2.0), constant_threshold(g, 1.0)
    qp = brute_force_qp(op, src, thr, 0.7, tol=1e-8)
    pd = pdhg_solve(op, src, thr, 0.7, tol=1e-8)
    assert qp.notes == ("stop=certified",) and pd.converged
    assert np.max(qp.lam.values) > 0.1  # the constraint binds
    assert rel_l2(qp.u.values, pd.u.values) <= 1e-6


def test_oracle_triangle_small_fractional():
    # penalty continuation, PDHG and the QP agree pairwise on one small
    # fractional instance (the full-size triangle lives in the acceptance run)
    g = grid_1d(64)
    op = isotropic_operator(g, a=1.0)
    src = constant_source(g, 2.0)
    thr = constant_threshold(g, 1.0)
    s = 0.7
    pen = continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=(0.1, 0.03, 0.01, 3e-3, 1e-3)))[-1][1]
    pd = pdhg_solve(op, src, thr, s, tol=1e-8)
    qp = brute_force_qp(op, src, thr, s, tol=1e-8)
    assert rel_l2(pen.u.values, pd.u.values) <= 1e-3
    assert rel_l2(pen.u.values, qp.u.values) <= 1e-3
    assert rel_l2(pd.u.values, qp.u.values) <= 1e-3


def test_a_form_asymmetric_at_1e9_is_not_symmetric(monkeypatch):
    # on the 2D n=32 disc, A with a 1e-9 off-diagonal asymmetry, or b = 1e-9
    # with dvec = 0: both oracles refuse A, and the penalty path solves it by
    # GMRES, as PCG needs an exactly symmetric J
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    src, thr = constant_source(g, 2.0), constant_threshold(g, 1.0)
    A = np.eye(2).reshape(2, 2, 1, 1) * np.ones(g.shape)
    A[0, 1] += 1e-9
    zero_v = np.zeros((2,) + g.shape)
    op = OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))
    b = np.where(g.masks().inside, 1e-9, 0.0) * np.ones((2,) + g.shape)
    b_op = OperatorData(g, np.eye(2).reshape(2, 2, 1, 1) * np.ones(g.shape), b, zero_v, np.zeros(g.shape))
    assert not WeakForm(op, src, 0.7).symmetric and not WeakForm(b_op, src, 0.7).symmetric
    for solver in (pdhg_solve, brute_force_qp):
        with pytest.raises(ValueError, match="symmetric A"):
            solver(op, src, thr, 0.7)
    krylov = []

    def counted(name, fn):
        def wrapper(*args):
            krylov.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(penalty, "pcg", counted("pcg", penalty.pcg))
    monkeypatch.setattr(penalty, "gmres", counted("gmres", penalty.gmres))
    stages = continuation_solve(op, src, thr, 0.7, SolverConfig(eps_schedule=(0.1, 0.03, 0.01, 3e-3, 1e-3)))
    assert all(sol.converged for _, sol, _ in stages)
    assert krylov and set(krylov) == {"gmres"}
