"""Penalized-regularized solver for the constrained transport system.

The constrained problem is approximated by: find u supported in Omega with

    L(u, v) + int k_eps(|D^s u| - g) D^s u . D^s v
            + eps int |D^s u|^(q-2) D^s u . D^s v  =  F(v)

for all v supported in Omega, with the exponential penalty

    k_eps(t) = 0 (t <= 0),  e^(t/eps) - 1 (0 < t <= 1/eps),
    e^(1/eps^2) - 1 (t >= 1/eps),

and q > 1 + d/s.  The multiplier estimate is lambda = k_eps(|D^s u|-g)
itself, the flux is Psi = lambda D^s u, and eps-continuation drives the
KKT diagnostics to the complementarity system.

Unknowns are the values of u at the Omega-interior nodes, so membership in
the zero-extension space is enforced strongly.  The fractional gradient of
the nodal basis is assembled once per (grid, s) as a dense matrix G (the
spectral operator is a lattice convolution, so columns are shifts of one
kernel), and gradients and residuals are BLAS matrix-vector products with
it.  The nodal weak residual is written once, in _PenaltyProblem, and both
the Newton iteration and the KKT report use it.  The Newton Jacobian
G^T C G, with a d x d coefficient C per box node, is a weighted Gram: C's
symmetric part is positive semidefinite, so its per-node factor L L^T gives
G^T C G = Z^T Z with Z = L^T G, accumulated over row blocks by BLAS syrk.
The Newton systems are then small dense solves.

This path imports numpy only: importing scipy.linalg alone costs ~28 MB of
resident memory and ~0.3 s, more than some whole solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil

import numpy as np

from .forms import OperatorData, SourceData, Threshold
from .grid import GridSpec, ScalarField, VectorField, lp_norm, random_bumps
from .riesz import EXP_CAP, _as_s, riesz_symbol


@dataclass(frozen=True)
class SolverConfig:
    """Penalty parameter, regularization power and iteration controls."""

    eps: float = 1e-2
    q: float | None = None  # default ceil(1 + d/s) + 1
    eps_schedule: tuple[float, ...] = ()
    newton_tol: float = 1e-8
    max_iters: int = 120
    damping: float = 1e-11
    min_step: float = 1e-7

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.q is not None and self.q <= 2:
            raise ValueError("q must exceed 2")
        sched = tuple(float(e) for e in self.eps_schedule)
        if sched:
            if any(not 0 < e < 1 for e in sched):
                raise ValueError("schedule entries must lie in (0, 1)")
            if any(a <= b for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", sched)


def default_q(d: int, s: float) -> float:
    return float(ceil(1 + d / s) + 1)


@dataclass(frozen=True)
class PenaltyFn:
    """The exponential penalty k_eps and its primitives.

    The argument of every exponential is clamped at EXP_CAP so transient
    Newton overshoots stay finite; for eps >= 1/sqrt(EXP_CAP) the clamp
    never engages and the function is exactly the saturated exponential.
    """

    eps: float

    @property
    def t_cap(self) -> float:
        return min(1.0 / self.eps, EXP_CAP * self.eps)

    @property
    def k_sat(self) -> float:
        return float(np.expm1(min(1.0 / self.eps**2, EXP_CAP)))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        arg = np.minimum(t / self.eps, min(1.0 / self.eps**2, EXP_CAP))
        return np.where(t > 0, np.expm1(arg), 0.0)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        on = (t > 0) & (t < self.t_cap)
        arg = np.minimum(t / self.eps, EXP_CAP)
        return np.where(on, np.exp(arg) / self.eps, 0.0)

    def antiderivative_radial(self, r, g):
        """pi(r) = int_0^r tau k_eps(tau - g) dtau, the convex radial energy."""
        r = np.asarray(r, dtype=float)
        g = np.asarray(g, dtype=float)
        eps, tc, ks = self.eps, self.t_cap, self.k_sat
        T = np.clip(r - g, 0.0, tc)
        eT = np.exp(np.minimum(T / eps, EXP_CAP))
        core = eps * (T + g) * eT - eps**2 * eT - eps * g + eps**2 - T**2 / 2 - g * T
        out = np.where(r > g, core, 0.0)
        over = r - g > tc
        if np.any(over):
            out = out + np.where(over, ks * (r**2 - (g + tc) ** 2) / 2, 0.0)
        return out


def penalty_value(eps: float, t):
    """k_eps(t) and its derivative (vectorized)."""
    fn = PenaltyFn(eps)
    return fn.value(t), fn.derivative(t)


@dataclass(frozen=True)
class Solution:
    """Potential u, multiplier field lam, flux psi, and solve diagnostics."""

    u: ScalarField
    lam: ScalarField
    psi: VectorField
    eps: float
    q: float
    s: float
    converged: bool
    iterations: int
    residual_norm: float
    energy_history: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class KKTReport:
    violation_sup: float
    complementarity: float
    equation_residual: float  # residual of the limit system (no eps term)
    penalized_residual_sup: float  # residual of the solved penalized equation
    v_measure: float
    k_l1: float
    psi_l1: float
    dsu_lr: float
    r_exponent: float


# The localize sweep solves up to 4 values of s at once; twice that keeps each
# in-flight solve's matrix cached between its stages.
@lru_cache(maxsize=8)
def _gradient_matrix(grid: GridSpec, s: float) -> np.ndarray:
    """Dense D^s of the Omega-node basis: shape (d, n^d, m), via kernel shifts.

    Memoised per (grid, s) in a bounded cache, so the array is read-only.
    """
    mask = grid.masks().inside
    n, d = grid.points_per_axis, grid.dim
    nodes = np.argwhere(mask)
    N = n**d
    if d * N * len(nodes) > 6e7:
        raise ValueError("dense gradient matrix would be too large for this grid")
    m = riesz_symbol(grid, s)
    kern = np.stack([np.fft.ifftn(m[j]).real for j in range(d)])
    axes = tuple(range(1, d + 1))
    cols = np.empty((d, N, len(nodes)))
    for i, node in enumerate(nodes):
        # D^s is a lattice convolution: the column of a node is the kernel
        # shifted onto it
        cols[:, :, i] = np.roll(kern, tuple(node), axis=axes).reshape(d, N)
    cols.flags.writeable = False
    return cols


# Box nodes per block of the weighted Gram.  A block's Z holds d * 512 * m
# values, under the size of G itself on every grid of more than 512 nodes.
_GRAM_ROWS = 512


def _weighted_gram(G: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_ab G_a^T diag(C_ab) G_b for nodal coefficients C of shape (d, d, N).

    The symmetric part of C must be positive semidefinite at every node
    (rounding-level negative eigenvalues are clamped to 0).  It is factored
    per node as L L^T, which turns its sum into Z^T Z with
    Z_c = sum_a L_ac G_a; Z is formed one block of box rows at a time and
    numpy sends each Z_blk^T Z_blk to BLAS syrk.  A skew part of C, when
    present, adds G_a^T (K_ab G_b) - transpose over a < b.
    """
    d, N, m = G.shape
    Cn = np.moveaxis(C, -1, 0)  # (N, d, d)
    w, V = np.linalg.eigh(0.5 * (Cn + np.swapaxes(Cn, 1, 2)))
    L = V * np.sqrt(np.maximum(w, 0.0))[:, None, :]
    K = 0.5 * (C - np.swapaxes(C, 0, 1))
    skew = [(a, b) for a in range(d) for b in range(a + 1, d) if np.any(K[a, b])]
    J = np.zeros((m, m))
    X = np.zeros((m, m)) if skew else None
    for r0 in range(0, N, _GRAM_ROWS):
        rows = slice(r0, min(r0 + _GRAM_ROWS, N))
        Gb = G[:, rows]
        Z = np.empty((d, Gb.shape[1], m))
        np.einsum("nac,anm->cnm", L[rows], Gb, out=Z)
        Z = Z.reshape(-1, m)
        J += Z.T @ Z
        for a, b in skew:
            X += Gb[a].T @ (K[a, b, rows, None] * Gb[b])
    if skew:
        J += X - X.T
    return J


def _assemble_rhs(src: SourceData, G: np.ndarray, mask: np.ndarray, hd: float) -> np.ndarray:
    """h^d (f_sharp + (D^s)^T f_vec) on the Omega nodes."""
    d, N, m = G.shape
    return hd * (src.f_sharp[mask] + src.f_vec.ravel() @ G.reshape(d * N, m))


class _PenaltyProblem:
    """Residual/energy/Jacobian of the penalized weak form over Omega nodes."""

    def __init__(self, op: OperatorData, src: SourceData, thr: Threshold, s: float, eps: float, q: float):
        grid = op.grid
        self.grid = grid
        self.mask = grid.masks().inside
        self.hd = grid.cell_volume
        self.G = _gradient_matrix(grid, s)  # (d, N, m)
        self.d, self.N, self.m = self.G.shape
        self.Gf = self.G.reshape(self.d * self.N, self.m)
        self.op = op
        self.thr = thr
        self.s = s
        self.eps = eps
        self.q = q
        self.fn = PenaltyFn(eps)
        self.g_flat = thr.g.ravel()
        self.rhs = _assemble_rhs(src, self.G, self.mask, self.hd)
        self.A_flat = op.A.reshape(self.d, self.d, -1)
        self.b_at = op.b[:, self.mask]  # (d, m)
        self.dvec_flat = op.dvec.reshape(self.d, -1)
        self.c_at = op.c[self.mask]
        mask_flat = self.mask.ravel()
        self.unk_box_index = np.flatnonzero(mask_flat)
        self.symmetric = bool(
            np.allclose(op.b, op.dvec) and np.allclose(op.A, np.swapaxes(op.A, 0, 1))
        )

    def grad(self, u: np.ndarray) -> np.ndarray:
        return (self.Gf @ u).reshape(self.d, self.N)

    def flux_coeff(self, mag: np.ndarray):
        k = self.fn.value(mag - self.g_flat)
        apen = k + self.eps * np.maximum(mag, 1e-150) ** (self.q - 2)
        return k, apen

    def weak_residual(self, u: np.ndarray, p: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """h^d [G^T (A p + coeff p + dvec u) + b . p + c u] - rhs on the Omega nodes.

        p = D^s u on the box and coeff is an isotropic flux coefficient per box
        node.  Its dot product with v|_Omega, for any v vanishing off Omega,
        is L(u, v) + <coeff D^s u, D^s v> - F(v).
        """
        flux = np.einsum("abN,bN->aN", self.A_flat, p) + coeff[None] * p
        flux = flux + self.dvec_flat * _scatter(u, self.unk_box_index, self.N)[None]
        out = flux.ravel() @ self.Gf
        out = out + np.sum(self.b_at * p[:, self.unk_box_index], axis=0) + self.c_at * u
        return self.hd * out - self.rhs

    # residual, energy and jacobian take p = D^s u when the caller has it
    def residual(self, u: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        p = self.grad(u) if p is None else p
        _, apen = self.flux_coeff(np.sqrt(np.sum(p**2, axis=0)))
        return self.weak_residual(u, p, apen)

    def energy(self, u: np.ndarray, p: np.ndarray | None = None) -> float:
        p = self.grad(u) if p is None else p
        mag = np.sqrt(np.sum(p**2, axis=0))
        quad = 0.5 * np.sum(np.einsum("abN,bN->aN", self.A_flat, p) * p)
        conv = np.sum(self.dvec_flat[:, self.unk_box_index] * p[:, self.unk_box_index] * u[None])
        low = 0.5 * np.sum(self.c_at * u**2)
        pen = np.sum(self.fn.antiderivative_radial(mag, self.g_flat))
        reg = (self.eps / self.q) * np.sum(np.maximum(mag, 0.0) ** self.q)
        return float(self.hd * (quad + conv + low + pen + reg) - self.rhs @ u)

    def jacobian(self, u: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        p = self.grad(u) if p is None else p
        mag = np.sqrt(np.sum(p**2, axis=0))
        magf = np.maximum(mag, 1e-150)
        k = self.fn.value(mag - self.g_flat)
        kp = self.fn.derivative(mag - self.g_flat)
        apen = k + self.eps * magf ** (self.q - 2)
        aniso = kp / magf + self.eps * (self.q - 2) * magf ** (self.q - 4)
        # A + apen I + aniso p p^T: positive semidefinite, as A's symmetric
        # part is and apen, aniso >= 0; p p^T is formed first so that the
        # added term is exactly symmetric
        coeff = self.A_flat + aniso * (p[:, None] * p[None, :])
        coeff[np.diag_indices(self.d)] += apen
        J = _weighted_gram(self.G, coeff)
        # d/du of the convection term G^T (dvec u) and of b . D^s u
        for a in range(self.d):
            dv, ba = self.dvec_flat[a, self.unk_box_index], self.b_at[a]
            if dv.any() or ba.any():
                Ga = self.G[a][self.unk_box_index]
                J += Ga.T * dv[None, :] + ba[:, None] * Ga
        J[np.diag_indices_from(J)] += self.c_at
        return self.hd * J


def _scatter(u: np.ndarray, idx: np.ndarray, N: int) -> np.ndarray:
    out = np.zeros(N)
    out[idx] = u
    return out


def penalized_residual(
    u: ScalarField,
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    cfg: SolverConfig,
) -> ScalarField:
    """Weak residual of the penalized equation against the nodal basis.

    The returned field holds, at each Omega node, the partial derivative of
    the discrete energy with respect to that nodal value (zero elsewhere);
    it vanishes at the solution.
    """
    sv = _as_s(s)
    q = cfg.q if cfg.q is not None else default_q(op.grid.dim, sv)
    prob = _PenaltyProblem(op, src, thr, sv, cfg.eps, q)
    mask = op.grid.masks().inside
    r = prob.residual(u.values[mask])
    if not np.isfinite(r).all():
        raise FloatingPointError("non-finite penalized flux")
    out = np.zeros(op.grid.shape)
    out[mask] = r
    return ScalarField(op.grid, out)


def discrete_energy(
    u: ScalarField,
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    cfg: SolverConfig,
) -> float:
    """Discrete energy whose gradient is the penalized weak residual
    (meaningful as a merit function in the symmetric case)."""
    sv = _as_s(s)
    q = cfg.q if cfg.q is not None else default_q(op.grid.dim, sv)
    prob = _PenaltyProblem(op, src, thr, sv, cfg.eps, q)
    return prob.energy(u.values[op.grid.masks().inside])


def _run_newton(prob: _PenaltyProblem, u0: np.ndarray, cfg: SolverConfig):
    u = u0.copy()
    scale = 1.0 + float(np.linalg.norm(prob.rhs))
    hist = []
    damping = cfg.damping
    p = prob.grad(u)
    r = prob.residual(u, p)
    rnorm = float(np.linalg.norm(r))
    energy = prob.energy(u, p) if prob.symmetric else None
    it = 0
    best, since_best = rnorm, 0
    while rnorm > cfg.newton_tol * scale and it < cfg.max_iters:
        # stagnation at the floating-point floor of the stiff penalty
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
                # Armijo on the convex energy keeps the iteration monotone;
                # once energy differences fall below float granularity the
                # residual-decrease fallback takes over
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
        if prob.symmetric:
            hist.append(energy)
        if rnorm < 0.99 * best:
            best, since_best = rnorm, 0
        else:
            since_best += 1
    return u, rnorm <= cfg.newton_tol * scale, it, rnorm, tuple(hist)


def solve_fixed_eps(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    cfg: SolverConfig,
    warm_start: Solution | None = None,
) -> Solution:
    """Solve the penalized problem at the configured eps.

    Damped Newton with an energy line search when the form is symmetric
    (Armijo on the convex discrete energy), residual-reduction line search
    otherwise.  A cold start at small eps first walks a short internal
    geometric eps chain down from 0.1, since the exponential wall defeats
    plain Newton from zero.  Returns the last accepted iterate, with
    converged=False if the iteration budget runs out or Newton stalls.
    """
    sv = _as_s(s)
    grid = op.grid
    q = cfg.q if cfg.q is not None else default_q(grid.dim, sv)
    if warm_start is None and cfg.eps < 0.1:
        e = 0.1
        while e > cfg.eps * 1.0001:
            warm_start = solve_fixed_eps(op, src, thr, s, replace(cfg, eps=e, eps_schedule=()), warm_start)
            e = max(cfg.eps, 0.25 * e)
    prob = _PenaltyProblem(op, src, thr, sv, cfg.eps, q)
    mask = grid.masks().inside
    if warm_start is not None:
        u0 = warm_start.u.values[mask]
    else:
        u0 = np.zeros(int(mask.sum()))
    u, ok, iters, rnorm, hist = _run_newton(prob, u0, cfg)

    p = prob.grad(u)
    lam, _ = prob.flux_coeff(np.sqrt(np.sum(p**2, axis=0)))
    return Solution(
        u=ScalarField(grid, _scatter(u, prob.unk_box_index, prob.N).reshape(grid.shape)),
        lam=ScalarField(grid, lam.reshape(grid.shape)),
        psi=VectorField(grid, (lam * p).reshape((grid.dim,) + grid.shape)),
        eps=cfg.eps,
        q=q,
        s=sv,
        converged=bool(ok),
        iterations=iters,
        residual_norm=rnorm,
        energy_history=hist,
    )


def continuation_solve(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    cfg: SolverConfig,
) -> list[tuple[float, Solution, KKTReport]]:
    """Warm-started continuation along the decreasing eps schedule."""
    schedule = cfg.eps_schedule if cfg.eps_schedule else (cfg.eps,)
    out = []
    warm = None
    for eps in schedule:
        stage_cfg = replace(cfg, eps=eps, eps_schedule=())
        sol = solve_fixed_eps(op, src, thr, s, stage_cfg, warm_start=warm)
        if not sol.converged:
            raise RuntimeError(f"continuation stage eps={eps} failed to converge")
        out.append((eps, sol, kkt_report(sol, op, src, thr, s)))
        warm = sol
    return out


def kkt_battery(grid: GridSpec, count: int = 32, seed: int = 2024) -> list[ScalarField]:
    """Fixed battery of test fields: random bumps plus low-frequency modes."""
    from .grid import bump

    fields = random_bumps(grid, count, seed=seed)
    window = bump(grid)
    pts = grid.coords()
    L = grid.box_side
    for j in range(grid.dim):
        for k0 in (1, 2):
            fields.append(ScalarField(grid, window.values * np.cos(2 * np.pi * k0 * pts[j] / L)))
            fields.append(ScalarField(grid, window.values * pts[j] ** k0))
    return fields


def kkt_report(sol: Solution, op: OperatorData, src: SourceData, thr: Threshold, s) -> KKTReport:
    """Constraint violation, complementarity and residual diagnostics.

    D^s u is G u on the Omega nodes, so sol.u must vanish off Omega.  The
    residuals of the limit system (flux coefficient lam) and of the penalized
    equation (lam + eps |D^s u|^(q-2)) are the nodal weak residuals r of
    _PenaltyProblem.  Every kkt_battery field v vanishes off the Omega nodes,
    so D^s v = G v|_Omega and L(u, v) + <coeff D^s u, D^s v> - F(v) equals
    r . v|_Omega exactly: with the battery as the rows of V (restricted to
    Omega), V r tests all fields at once, and each is scaled by
    ||D^s v||_2 = sqrt(h^d) |G v|_Omega|, a column norm of G V^T.
    """
    grid = op.grid
    mask = grid.masks().inside
    if np.any(sol.u.values[~mask]):
        raise ValueError("sol.u must vanish outside Omega")
    prob = _PenaltyProblem(op, src, thr, _as_s(s), sol.eps, sol.q)
    hd = prob.hd
    u = sol.u.values[mask]
    p = prob.grad(u)
    mag = np.sqrt(np.sum(p**2, axis=0))
    slack = mag - prob.g_flat
    lam = sol.lam.values.ravel()
    violation = float(np.max(np.maximum(slack, 0.0)))
    comp = hd * float(np.sum(lam * slack))
    v_measure = hd * float(np.count_nonzero(slack > np.sqrt(sol.eps)))
    k_l1 = hd * float(np.sum(np.abs(lam)))
    psi_l1 = hd * float(np.sum(np.sqrt(np.sum(sol.psi.values**2, axis=0))))

    V = np.stack([v.values[mask] for v in kkt_battery(grid)])
    # |G v|^2 one block of rows at a time: one GEMM with all of G packs it
    # into ~24 MB of BLAS buffers (+18% peak RSS on a 2D n=64 solve)
    Gf = prob.Gf
    dv2 = sum(np.sum((Gf[r0 : r0 + _GRAM_ROWS] @ V.T) ** 2, axis=0) for r0 in range(0, len(Gf), _GRAM_ROWS))
    norm_v = np.sqrt(hd * dv2)
    # oracle solutions carry eps = 0 (no regularization term)
    eps_coeff = sol.eps * np.maximum(mag, 1e-150) ** (sol.q - 2) if sol.eps > 0 else 0.0
    r_eq = prob.weak_residual(u, p, lam)
    r_pen = prob.weak_residual(u, p, lam + eps_coeff)
    keep = norm_v > 0
    tested = np.abs(V[keep] @ np.stack([r_eq, r_pen], axis=1)) / norm_v[keep, None]
    eq_res, pen_res = np.max(tested, axis=0, initial=0.0)

    r = max(sol.q - 1.0, 1.0)
    return KKTReport(
        violation_sup=violation,
        complementarity=comp,
        equation_residual=float(eq_res),
        penalized_residual_sup=float(pen_res),
        v_measure=v_measure,
        k_l1=k_l1,
        psi_l1=psi_l1,
        dsu_lr=lp_norm(VectorField(grid, p.reshape((grid.dim,) + grid.shape)), r),
        r_exponent=r,
    )
