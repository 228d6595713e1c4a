"""Independent reference solvers and closed-form benchmarks.

Three implementation-independent routes to the constrained minimizer of the
symmetric convex problem (A symmetric, b = dvec = 0, c >= 0):

* `pdhg_solve` - a first-order primal-dual (Chambolle-Pock) iteration on
  min 1/2 L(u,u) - F(u) subject to the nodewise bound |D^s u| <= g, with a
  certified duality gap;
* `brute_force_qp` - projected dual-gradient ascent (Uzawa) with exact
  inner solves, slow but structurally unlike both the penalty path and
  PDHG;
* closed-form elastoplastic-torsion and transport benchmarks for s = 1 on
  Omega = (-1, 1), whose flux is -f x in both the elastic/plastic and the
  fully degenerate regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import OperatorData, SourceData, Threshold
from .grid import GridSpec, ScalarField, VectorField
from .penalty import Solution, _assemble_rhs, _omega_fft, _scatter, _weighted_gram
from .riesz import _as_s


# -- analytic benchmarks -------------------------------------------------------


@dataclass(frozen=True)
class AnalyticBenchmark:
    """Closed-form (u, lambda) pair on Omega = (-1, 1) with g = 1, s = 1."""

    name: str
    a0: float
    f: float
    u: Callable[[np.ndarray], np.ndarray]
    uprime: Callable[[np.ndarray], np.ndarray]
    lam: Callable[[np.ndarray], np.ndarray]

    def flux(self, x: np.ndarray) -> np.ndarray:
        """(a0 + lambda) u'; equals -f x for both benchmark families."""
        return (self.a0 + self.lam(x)) * self.uprime(x)

    def sample(self, grid: GridSpec) -> tuple[ScalarField, ScalarField]:
        if grid.dim != 1:
            raise ValueError("benchmarks are one-dimensional")
        x = grid.axis()
        inside = np.abs(x) < 1.0
        return (
            ScalarField(grid, np.where(inside, self.u(x), 0.0)),
            ScalarField(grid, np.where(inside, self.lam(x), 0.0)),
        )


def analytic_torsion_1d(a0: float, f: float) -> AnalyticBenchmark:
    """Constrained torsion benchmark: -((a0 + lambda) u')' = f, |u'| <= 1.

    For f <= a0 the constraint never binds and u is the elastic parabola;
    for f > a0 the profile is plastic (|u'| = 1) outside |x| = a0/f with
    multiplier lambda = (f|x| - a0)^+.
    """
    if a0 <= 0 or f <= 0:
        raise ValueError("need a0 > 0 and f > 0")
    if f <= a0:

        def u(x):
            return f * (1 - x**2) / (2 * a0)

        def uprime(x):
            return -f * x / a0

        def lam(x):
            return np.zeros_like(np.asarray(x, dtype=float))

    else:
        m = a0 / f

        def u(x):
            ax = np.abs(x)
            plastic = 1 - ax
            elastic = 1 - m + f * (m**2 - x**2) / (2 * a0)
            return np.where(ax >= m, plastic, elastic)

        def uprime(x):
            return np.clip(-f * x / a0, -1.0, 1.0)

        def lam(x):
            return np.maximum(f * np.abs(x) - a0, 0.0)

    return AnalyticBenchmark("torsion", a0, f, u, uprime, lam)


def analytic_mk_1d(f: float) -> AnalyticBenchmark:
    """Degenerate transport benchmark: u is the distance potential 1 - |x|,
    lambda = f |x| the transport density, -(lambda u')' = f."""
    if f <= 0:
        raise ValueError("need f > 0")

    def u(x):
        return 1 - np.abs(x)

    def uprime(x):
        return -np.sign(x)

    def lam(x):
        return f * np.abs(x)

    return AnalyticBenchmark("monge-kantorovich", 0.0, f, u, uprime, lam)


# -- shared quadratic assembly ---------------------------------------------------


def _quadratic_pieces(op: OperatorData, src: SourceData, s: float):
    """Q, rhs of the discrete energy 1/2 u'Qu - rhs'u over Omega nodes.

    Requires the symmetric convex case.  Where A and c both vanish at some
    Omega node, the principal part is degenerate there and Q can be
    singular, so a 1e-8 mass ridge keeps it positive definite (noted on the
    returned flag).
    """
    if np.any(op.b != 0.0) or np.any(op.dvec != 0.0):
        raise ValueError("oracle solvers require b = dvec = 0")
    if op.c.min() < 0:
        raise ValueError("oracle solvers require c >= 0")
    if not np.allclose(op.A, np.swapaxes(op.A, 0, 1)):
        raise ValueError("oracle solvers require symmetric A")
    grid = op.grid
    hd = grid.cell_volume
    mask = grid.masks().inside
    fft = _omega_fft(grid, s)
    G = fft.G
    d, N, m = G.shape
    Q = _weighted_gram(G, op.A.reshape(d, d, N))
    unk = np.flatnonzero(mask.ravel())
    Q[np.diag_indices_from(Q)] += op.c.ravel()[unk]
    Q *= hd
    degenerate = np.all(op.A.reshape(d * d, N)[:, unk] == 0.0, axis=0) & (op.c.ravel()[unk] == 0.0)
    ridge_added = bool(degenerate.any())
    if ridge_added:
        Q[np.diag_indices_from(Q)] += 1e-8 * hd
    return Q, _assemble_rhs(src, fft, hd), G, unk, ridge_added


def _package(grid, s, uvec, lam_flat, unk, G, converged, iters, gap, notes=()):
    N = int(np.prod(grid.shape))
    u_field = ScalarField(grid, _scatter(uvec, unk, N).reshape(grid.shape))
    du = (G.reshape(-1, uvec.size) @ uvec).reshape((grid.dim,) + grid.shape)
    lam = lam_flat.reshape(grid.shape)
    return Solution(
        u=u_field,
        lam=ScalarField(grid, lam),
        psi=VectorField(grid, lam[None] * du),
        eps=0.0,
        q=0.0,
        s=s,
        converged=converged,
        iterations=iters,
        residual_norm=gap,
        notes=tuple(notes),
    )


def direct_linear_solve(op: OperatorData, src: SourceData, s) -> ScalarField:
    """Unconstrained solve L u = F (symmetric case), as a cross-check."""
    sv = _as_s(s)
    Q, rhs, G, unk, _ = _quadratic_pieces(op, src, sv)
    uvec = np.linalg.solve(Q, rhs)
    N = int(np.prod(op.grid.shape))
    return ScalarField(op.grid, _scatter(uvec, unk, N).reshape(op.grid.shape))


def _feasible_scaling(p_mag: np.ndarray, g: np.ndarray) -> float:
    active = p_mag > 0
    if not active.any():
        return 1.0
    return float(min(1.0, np.min(g[active] / p_mag[active])))


def pdhg_solve(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    tol: float = 1e-8,
    max_iters: int = 200_000,
    step_ratio: float = 10.0,
) -> Solution:
    """Primal-dual hybrid gradient for the gradient-constrained minimization.

    Stops when the duality gap, evaluated at the feasibility-scaled primal
    point and the always-dual-feasible shrunken y, drops below
    tol * (1 + |energy|).  The dual variable yields the multiplier estimate
    lambda = |y| / (h^d g).  step_ratio skews tau/sigma toward the primal,
    which accelerates the strongly convex cases considerably.

    Both linear operators the loop needs are formed once, before it starts,
    with numpy alone: (I + tau Q)^{-1}, so each primal prox step is one
    matrix-vector product, and chol(Q)^{-1}, which gives the dual value
    -1/2 |chol(Q)^{-1} w|^2 at every gap check.  Raises ValueError when Q
    is not positive definite.
    """
    sv = _as_s(s)
    grid = op.grid
    hd = grid.cell_volume
    Q, rhs, G, unk, ridge = _quadratic_pieces(op, src, sv)
    d, N, m = G.shape
    g_flat = thr.g.ravel()

    K = G.reshape(d * N, m)
    # power iteration for ||K||
    v = np.ones(m) / np.sqrt(m)
    for _ in range(50):
        w = K.T @ (K @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
    Knorm = max(float(np.sqrt(np.linalg.norm(K.T @ (K @ v)))), 1e-30)
    tau = step_ratio / Knorm
    sigma = 0.9 / (step_ratio * Knorm)

    # numpy only: importing scipy.linalg for cho_factor would add ~28 MB
    try:
        Lq_inv = np.linalg.inv(np.linalg.cholesky(Q))
    except np.linalg.LinAlgError:
        raise ValueError("the discrete energy is not strictly convex: Q is not positive definite") from None
    Minv = np.eye(m)
    Minv += tau * Q
    Minv = np.linalg.inv(Minv)

    def dual_value(y):
        w = rhs - K.T @ y
        t = Lq_inv @ w
        return -0.5 * float(t @ t) - float(np.sum(g_flat * _mag(y)))

    def _mag(y):
        return np.sqrt(np.sum(y.reshape(d, N) ** 2, axis=0))

    u = np.zeros(m)
    ubar = u.copy()
    y = np.zeros(d * N)
    gap, primal = np.inf, 0.0
    it = 0
    check_every = 50
    while it < max_iters:
        it += 1
        ytil = y + sigma * (K @ ubar)
        magy = _mag(ytil)
        shrink = np.maximum(0.0, 1.0 - sigma * g_flat / np.maximum(magy, 1e-300))
        y = (ytil.reshape(d, N) * shrink[None]).reshape(d * N)
        u_old = u
        u = Minv @ (u - tau * (K.T @ y) + tau * rhs)
        ubar = 2 * u - u_old
        if it % check_every == 0:
            p = (K @ u).reshape(d, N)
            tstar = _feasible_scaling(np.sqrt(np.sum(p**2, axis=0)), g_flat)
            uf = tstar * u
            primal = 0.5 * float(uf @ (Q @ uf)) - float(rhs @ uf)
            gap = primal - dual_value(y)
            # tol = 0 disables the gap stop (the gap floor is float noise
            # around 1e-14; run the full budget for machine-accurate u)
            if tol > 0 and gap <= tol * (1.0 + abs(primal)):
                break

    p = (K @ u).reshape(d, N)
    tstar = _feasible_scaling(np.sqrt(np.sum(p**2, axis=0)), g_flat)
    uvec = tstar * u
    if not np.isfinite(gap):
        uf = tstar * u
        primal = 0.5 * float(uf @ (Q @ uf)) - float(rhs @ uf)
        gap = primal - dual_value(y)
    lam_flat = _mag(y) / (hd * g_flat)
    notes = ("mass-ridge-1e-8",) if ridge else ()
    converged = gap <= max(tol, 1e-12) * (1.0 + abs(primal))
    return _package(grid, sv, uvec, lam_flat, unk, G, converged, it, float(gap), notes)


def brute_force_qp(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    tol: float = 1e-8,
    max_outer: int = 100_000,
) -> Solution:
    """Projected dual-gradient ascent with exact inner minimization.

    The multiplier lambda >= 0 enters the Lagrangian through the quadratic
    slack (|D^s u|^2 - g^2)/2, so each inner problem is a linear solve; the
    outer loop is gradient ascent on the concave dual, projected onto the
    nonnegative cone, with adaptive step control.  Implementation shares
    nothing with the penalty or PDHG iterations beyond the assembled Q.
    """
    sv = _as_s(s)
    grid = op.grid
    hd = grid.cell_volume
    Q, rhs, G, unk, ridge = _quadratic_pieces(op, src, sv)
    d, N, m = G.shape
    g_flat = thr.g.ravel()

    # a degenerate principal part needs a positive multiplier start, or the
    # first inner solve runs on the 1e-8 ridge alone and explodes
    lam = np.ones(N) if ridge else np.zeros(N)

    eye = np.eye(d)[:, :, None]

    def inner(lam_vec):
        Qeff = Q + hd * _weighted_gram(G, eye * lam_vec)
        uvec = np.linalg.solve(Qeff, rhs)
        p = (G.reshape(d * N, m) @ uvec).reshape(d, N)
        psi = 0.5 * (np.sum(p**2, axis=0) - g_flat**2)
        # at the inner minimizer Qeff u = rhs, so the Lagrangian collapses
        # to -1/2 rhs.u - (h^d/2) sum lam g^2
        dual = -0.5 * float(rhs @ uvec) - 0.5 * hd * float(np.sum(lam_vec * g_flat**2))
        return uvec, p, psi, dual

    step = 1.0 / float(np.max(g_flat) ** 2 + 1.0)
    uvec, p, psi, dual = inner(lam)
    gap, primal = np.inf, 0.0
    it = 0
    while it < max_outer:
        it += 1
        lam_new = np.maximum(0.0, lam + step * psi)
        u_new, p_new, psi_new, dual_new = inner(lam_new)
        if dual_new >= dual - 1e-15 * (1 + abs(dual)):
            lam, uvec, p, psi, dual = lam_new, u_new, p_new, psi_new, dual_new
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-14:
                break
            continue
        if it % 20 == 0:
            mag = np.sqrt(np.sum(p**2, axis=0))
            tstar = _feasible_scaling(mag, g_flat)
            uf = tstar * uvec
            primal = 0.5 * float(uf @ (Q @ uf)) - float(rhs @ uf)
            gap = primal - dual
            if gap <= tol * (1 + abs(primal)):
                break

    mag = np.sqrt(np.sum(p**2, axis=0))
    tstar = _feasible_scaling(mag, g_flat)
    notes = ("mass-ridge-1e-8",) if ridge else ()
    converged = gap <= tol * (1 + abs(primal))
    return _package(grid, sv, tstar * uvec, lam, unk, G, converged, it, float(gap), notes)
