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
from .grid import GridSpec, ScalarField
from .lattice import WeakForm, magnitude
from .penalty import Solution


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
    """The oracles' discrete problem over the Omega nodes: the WeakForm the
    penalty path shares.

    The energy is 1/2 u'Qu - form.rhs'u, with Q = _energy_matrix(form), on
    the nodes form.fft.nodes, and D^s u is form.grad(u).  Requires the
    symmetric convex case, and a Q of at most 6e7 entries (480 MB).
    """
    form = WeakForm(op, src, s)
    # b and dvec vanish off Omega, so no convection means b = dvec = 0
    if form.convection or not form.symmetric:
        raise ValueError("oracle solvers require b = dvec = 0 and symmetric A")
    if op.c.min() < 0:
        raise ValueError("oracle solvers require c >= 0")
    if form.m**2 > 6e7:
        raise ValueError("the dense energy matrix Q would be too large for this grid")
    return form


def _energy_matrix(form: WeakForm) -> np.ndarray:
    """Q, (m, m): the form_matrix of A, the matrix of the weak form with no
    flux coefficient (Toeplitz, read off the kernel, where A is one definite
    tensor on the box).  Where the form degenerates (form.degenerate), Q can
    be singular, and a 1e-8 mass ridge keeps it positive definite."""
    Q = form.form_matrix(form.A_flat)
    if form.degenerate:
        Q[np.diag_indices_from(Q)] += 1e-8 * form.hd
    return Q


def _feasible_scaling(p_mag: np.ndarray, g: np.ndarray) -> float:
    active = p_mag > 0
    if not active.any():
        return 1.0
    return float(min(1.0, np.min(g[active] / p_mag[active])))


# PDHG's tau = _STEP_RATIO / sqrt(h^d): skewed toward the primal, which
# accelerates the strongly convex cases considerably
_STEP_RATIO = 10.0


def pdhg_solve(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    tol: float = 1e-8,
    max_iters: int = 200_000,
) -> Solution:
    """Primal-dual hybrid gradient for the gradient-constrained minimization.

    Stops when the duality gap, evaluated at the feasibility-scaled primal
    point and the always-dual-feasible shrunken y, drops below
    tol * (1 + |energy|).  The dual variable yields the multiplier estimate
    lambda = |y| / (h^d g).

    With K = D^s on the Omega nodes, the primal metric is the Gram
    K^T K / tau (Pock & Chambolle, ICCV 2011), and the loop runs in
    z = V^-1 u for the generalized eigenvectors of the pencil (Q, K^T K):
    V^T Q V = diag(mu), V^T K^T K V = I.  The setup reads Li = L^-1 for the
    Cholesky factor L of the Toeplitz s-Laplacian Gram K^T K off the
    operator, form.fft.gram_factor_inverse: the first solve on a (grid, s)
    factors it, and later ones find it there for as long as lattice.omega_fft
    keeps that operator.  Where A is a I for one scalar a > 0 on the box and
    c = 0, Q = a h^d K^T K exactly: the pencil is trivial, mu = a h^d and
    V = Li^T, so Q is never assembled and a setup that finds the factor
    built does no (m, m) work.  Otherwise one numpy eigh of
    Li Q Li^T = W diag(mu) W^T gives V = Li^T W.  K V is orthonormal, so
    tau sigma = 0.9 meets the step condition with no norm estimate; the
    prox is the diagonal 1/(1 + tau mu), the dual value
    -1/2 sum (V^T rhs - (K V)^T y)^2 / mu reuses the step's (K V)^T y, and
    an iteration applies K V z = form.grad(V z) and (K V)^T y by the FFT
    adjoint, never forming K.  tau = _STEP_RATIO / sqrt(h^d): h^d scales
    both the primal curvature (mu = a h^d for A = a I) and the dual
    (|y| = h^d lambda g), so the step ignores the mass ridge of a
    degenerate operator.  Raises ValueError when Q is not positive definite.

    notes starts with "stop=<reason>": certified (the gap met tol at a
    check) or budget (max_iters ran out; always so at tol = 0), followed by
    "mass-ridge-1e-8" where the form degenerates.
    """
    form = _quadratic_pieces(op, src, s)
    hd, rhs, g_flat = form.hd, form.rhs, thr.g.ravel()
    d, N, m = form.d, form.N, form.m
    tau = _STEP_RATIO / np.sqrt(hd)
    sigma = 0.9 / tau

    # numpy only (no scipy eigh(Q, T)): importing scipy.linalg adds ~28 MB
    Li = form.fft.gram_factor_inverse
    A0 = form.A0
    if A0 is not None and np.array_equal(A0, A0[0, 0] * np.eye(d)) and not np.any(form.hc_at):
        # A = a I and c = 0: Q = a h^d K^T K, the trivial pencil
        mu, V = np.full(m, A0[0, 0] * hd), Li.T
    else:
        Q = Li @ _energy_matrix(form) @ Li.T
        try:
            mu, W = np.linalg.eigh(Q)
        except np.linalg.LinAlgError:
            mu = None
        if mu is None or not mu[0] > 0:
            raise ValueError("the discrete energy is not strictly convex: Q is not positive definite")
        del Q
        V = Li.T @ W
        del W
    rhat = V.T @ rhs
    prox = 1.0 / (1.0 + tau * mu)
    sigma_g, tau_rhat = sigma * g_flat, tau * rhat

    def primal_and_gap(zf, w, y):
        # w = (K V)^T y; both values are those of the u-basis problem
        primal = 0.5 * float(mu @ zf**2) - float(rhat @ zf)
        r = rhat - w
        dual = -0.5 * float(r @ (r / mu)) - float(g_flat @ magnitude(y))
        return primal, primal - dual

    z, zbar, w, y = np.zeros(m), np.zeros(m), np.zeros(m), np.zeros((d, N))
    gap, primal = np.inf, 0.0
    it = 0
    stop = "budget"
    while it < max_iters:
        it += 1
        ytil = form.grad(V @ zbar)
        ytil *= sigma
        ytil += y
        # the projection onto |y| <= sigma g, as g > 0: max(0, 1 - sigma g/|ytil|) ytil
        y = ytil * (1.0 - sigma_g / np.maximum(magnitude(ytil), sigma_g))
        w = V.T @ form.fft.adjoint(y)
        z, z_old = (z - tau * w + tau_rhat) * prox, z
        zbar = 2 * z - z_old
        if it % 50 == 0:
            zf = _feasible_scaling(magnitude(form.grad(V @ z)), g_flat) * z
            primal, gap = primal_and_gap(zf, w, y)
            # tol = 0 disables the gap stop (the gap floor is float noise
            # around 1e-14; run the full budget for machine-accurate u)
            if tol > 0 and gap <= tol * (1.0 + abs(primal)):
                stop = "certified"
                break

    p = form.grad(V @ z)
    tstar = _feasible_scaling(magnitude(p), g_flat)
    zf = tstar * z
    if not np.isfinite(gap):
        primal, gap = primal_and_gap(zf, w, y)
    lam_flat = magnitude(y) / (hd * g_flat)
    notes = (f"stop={stop}",) + (("mass-ridge-1e-8",) if form.degenerate else ())
    converged = gap <= max(tol, 1e-12) * (1.0 + abs(primal))
    return Solution.from_nodes(
        form.grid, form.fft.nodes, V @ zf, tstar * p, lam_flat,
        eps=0.0, s=s, converged=converged, iterations=it, residual_norm=float(gap), notes=notes,
    )


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
    nonnegative cone, with adaptive step control.  It shares nothing with
    the penalty or PDHG iterations beyond Q and D^s, whose rows where
    lambda > 0 the inner matrix adds to Q (WeakForm.add_active_rows).

    notes starts with "stop=<reason>": certified (the duality gap met tol),
    budget (max_outer iterations ran out) or step (the ascent step fell
    below 1e-14 without raising the dual).
    """
    form = _quadratic_pieces(op, src, s)
    Q, rhs, g_flat = _energy_matrix(form), form.rhs, thr.g.ravel()
    hd, d, N = form.hd, form.d, form.N

    # a degenerate principal part needs a positive multiplier start, or the
    # first inner solve runs on the 1e-8 ridge alone and explodes
    lam = np.ones(N) if form.degenerate else np.zeros(N)

    def inner(lam_vec):
        # the multiplier weighs every component of D^s u alike: C = lam I
        Qeff = form.add_active_rows(Q.copy(), np.eye(d)[..., None] * lam_vec, np.flatnonzero(lam_vec > 0))
        uvec = np.linalg.solve(Qeff, rhs)
        p = form.grad(uvec)
        psi = 0.5 * (np.sum(p**2, axis=0) - g_flat**2)
        # at the inner minimizer Qeff u = rhs, so the Lagrangian collapses
        # to -1/2 rhs.u - (h^d/2) sum lam g^2
        dual = -0.5 * float(rhs @ uvec) - 0.5 * hd * float(np.sum(lam_vec * g_flat**2))
        return uvec, p, psi, dual

    step = 1.0 / float(np.max(g_flat) ** 2 + 1.0)
    uvec, p, psi, dual = inner(lam)
    gap, primal = np.inf, 0.0
    it = 0
    stop = "budget"
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
                stop = "step"
                break
            continue
        if it % 20 == 0:
            tstar = _feasible_scaling(magnitude(p), g_flat)
            uf = tstar * uvec
            primal = 0.5 * float(uf @ (Q @ uf)) - float(rhs @ uf)
            gap = primal - dual
            if gap <= tol * (1 + abs(primal)):
                stop = "certified"
                break

    tstar = _feasible_scaling(magnitude(p), g_flat)
    notes = (f"stop={stop}",) + (("mass-ridge-1e-8",) if form.degenerate else ())
    converged = gap <= tol * (1 + abs(primal))
    uf = tstar * uvec
    return Solution.from_nodes(
        form.grid, form.fft.nodes, uf, tstar * p, lam,
        eps=0.0, s=s, converged=converged, iterations=it, residual_norm=float(gap), notes=notes,
    )
