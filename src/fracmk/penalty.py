"""Penalized-regularized solver for the constrained transport system.

The constrained problem is approximated by: find u supported in Omega with

    L(u, v) + int k_eps(|D^s u| - g) D^s u . D^s v
            + eps int |D^s u|^(q-2) D^s u . D^s v  =  F(v)

for all v supported in Omega, with the exponential penalty

    k_eps(t) = 0 (t <= 0),  e^(t/eps) - 1 (0 < t <= 1/eps),
    e^(1/eps^2) - 1 (t >= 1/eps),

and q = default_q(d, s) > 1 + d/s.  The q-power term regularizes L only
where it degenerates, when A = 0 and c = 0 at some Omega node
(WeakForm.degenerate), as in transport.  A coercive L makes the penalized
problem strongly monotone without it, so there the term is left out, and
with it its O(eps) error in the limit system.  The multiplier estimate is
lambda = k_eps(|D^s u|-g) itself, the flux is Psi = lambda D^s u, and
eps-continuation drives the KKT diagnostics to the complementarity system.

Newton carries lambda as an unknown of its own, one per box node, and
imposes its relation in complementarity form,

    min(lambda, max(eps log1p(lambda) - (|D^s u| - g), lambda - k_sat)) = 0,

which holds exactly when lambda = k_eps(|D^s u| - g).  Linearized, this is
a relation through log1p(lambda), not through the exponential, so a step
that overshoots |D^s u| no longer meets an e^(t/eps) wall (semismooth
Newton as a primal-dual active-set method: Hintermueller, Ito & Kunisch,
SIAM J. Optim. 13, 2003).  Its block is diagonal, so d lambda is
eliminated, and the reduced system has the primal Jacobian's form.  A
stage warm-starts lambda from the previous stage's multiplier.

Each reduced Newton system J s = -r is solved inexactly by preconditioned
CG (GMRES when the form is not symmetric) to an Eisenstat-Walker forcing
tolerance.  J = h^d G^T C G + ... is never formed for this: J v costs a few
FFTs, and Krylov applies J itself.  Damping enters only the assembled J:
the preconditioner is the inverse of the last assembled, damped J,
inverted in place by 2x2 blocks with GEMMs (dense.block_inverse, whose
symmetric path averages J with J^T, so PCG gets an exactly symmetric
inverse): a continuation holds one (m, m) array, allocated at its first
refresh or degenerate cold start, and every refresh assembles and inverts J
in it.  The inverse is kept through a continuation and a degenerate cold
start's eps chain, and J is assembled again only when the Krylov solve
misses its iteration budget, its step fails the line search above the
rounding floor, or the damping rises: a lagged Jacobian inside a Krylov
solve with the current J v (Jacobian-free Newton-Krylov: Knoll & Keyes,
J. Comput. Phys. 193, 2004).  WeakForm.form_matrix assembles J and
WeakForm.form_action applies it, so the dense J and the Krylov J v share
one definition.

A cold start at u = 0 suits a coercive operator.  Where the principal part
degenerates (A = 0 and c = 0 at some Omega node, as in transport), J at
u = 0 is the damping alone there (condition ~1e18), and Newton can stagnate
from it, primal-dual or not.  Such a solve starts instead at t* w, w the
solution of the s-Laplacian system h^d G^T G w = rhs, scaled into the
constraint set where the penalty vanishes and J is regular, and at the
multiplier 1/t*, whose flux balances the source there.

This path imports numpy only: importing scipy.linalg alone costs ~28 MB of
resident memory and ~0.3 s, more than some whole solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, isfinite
from numbers import Integral

import numpy as np

from .dense import block_inverse, gmres, norm, pcg
from .forms import OperatorData, SourceData, Threshold
from .grid import GridSpec, ScalarField, VectorField, lp_norm
from .lattice import WeakForm, magnitude, scatter

EXP_CAP = 500.0  # exp argument clamp; e^500 is finite in float64


@dataclass(frozen=True)
class SolverConfig:
    """Penalty parameter, its schedule and iteration controls."""

    eps: float = 1e-2
    eps_schedule: tuple[float, ...] = ()
    newton_tol: float = 1e-8
    max_iters: int = 120

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if not (isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError("newton_tol must be finite and positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, Integral) or self.max_iters < 0:
            raise ValueError("max_iters must be an integer >= 0")
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
    """The exponential penalty k_eps and its saturated value k_sat.

    The argument of every exponential is clamped at EXP_CAP so transient
    Newton overshoots stay finite; for eps >= 1/sqrt(EXP_CAP) the clamp
    never engages and the function is exactly the saturated exponential.
    """

    eps: float

    @property
    def k_sat(self) -> float:
        return float(np.expm1(min(1.0 / self.eps**2, EXP_CAP)))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        arg = np.minimum(t / self.eps, min(1.0 / self.eps**2, EXP_CAP))
        return np.where(t > 0, np.expm1(arg), 0.0)


@dataclass(frozen=True)
class Solution:
    """Potential u, multiplier field lam, flux psi, and solve diagnostics."""

    u: ScalarField
    lam: ScalarField
    psi: VectorField
    eps: float
    s: float
    converged: bool
    iterations: int
    residual_norm: float
    notes: tuple[str, ...] = ()

    @classmethod
    def from_nodes(
        cls, grid: GridSpec, nodes: np.ndarray, u: np.ndarray, p: np.ndarray, lam: np.ndarray, **diagnostics
    ) -> Solution:
        """The Solution of u on the Omega nodes, p = D^s u on the box ((d, N)
        or flat) and lambda per box node: u is scattered onto the box, and the
        flux is psi = lambda D^s u.  diagnostics are the remaining fields."""
        lam = lam.reshape(grid.shape)
        return cls(
            u=ScalarField(grid, scatter(u, nodes, lam.size).reshape(grid.shape)),
            lam=ScalarField(grid, lam),
            psi=VectorField(grid, lam * p.reshape((grid.dim,) + grid.shape)),
            **diagnostics,
        )


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


def _regularization(form: WeakForm, eps: float, q: float, mag: np.ndarray):
    """The coefficient of the q-power term per box node: eps |D^s u|^(q-2)
    where form degenerates, exactly 0 at eps = 0, as for an oracle's
    solution, and the scalar 0 on a coercive form, which has no such term."""
    if not form.degenerate:
        return 0.0
    return eps * np.maximum(mag, 1e-150) ** (q - 2)


class _PenaltyProblem(WeakForm):
    """Residual and Jacobian of the penalized weak form over the Omega nodes."""

    def __init__(self, op: OperatorData, src: SourceData, thr: Threshold, s: float, eps: float):
        super().__init__(op, src, s)
        self.eps = eps
        self.q = default_q(self.d, s)
        self.fn = PenaltyFn(eps)
        self.g_flat = thr.g.ravel()

    def regularization(self, mag: np.ndarray):
        return _regularization(self, self.eps, self.q, mag)

    def flux_coeff(self, mag: np.ndarray):
        k = self.fn.value(mag - self.g_flat)
        return k, k + self.regularization(mag)

    def multiplier_equation(self, mag: np.ndarray, lam: np.ndarray):
        """R2, lam_t and gain per box node for the multiplier equation

            R2 = min(lam, max(phi, lam - k_sat)) = 0,  phi = eps log1p(lam) - (|D^s u| - g),

        whose solutions are lam = k_eps(|D^s u| - g).  Its Newton
        linearization reads d lam = gain d|D^s u| + lam_t - lam: on the
        active set, where R2 = phi, gain = (1 + lam)/eps and
        lam_t = lam - gain phi; where R2 = lam - k_sat (saturated) lam_t =
        k_sat, and where R2 = lam, lam_t = 0, both with gain = 0.
        """
        phi = self.eps * np.log1p(lam) - (mag - self.g_flat)
        over = lam - self.fn.k_sat
        active = (phi < lam) & (phi >= over)
        gain = np.where(active, (1.0 + lam) / self.eps, 0.0)
        lam_t = np.where(active, lam - gain * phi, np.where(over > phi, self.fn.k_sat, 0.0))
        return np.minimum(lam, np.maximum(phi, over)), lam_t, gain

    # residual takes p = D^s u when the caller has it
    def residual(self, u: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        p = self.grad(u) if p is None else p
        _, apen = self.flux_coeff(magnitude(p))
        return self.weak_residual(u, p, apen)

    def flux_derivative(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """C = A + (lam + reg) I + (gain/|p| + reg') p p^T per box node,
        (d, d, N), reg the q-power coefficient (regularization): the
        derivative of the flux in D^s u when the multiplier lam moves by
        gain d|D^s u|.  Positive semidefinite, as A's symmetric part is and
        lam, gain >= 0; the outer products are formed first so that the
        added terms are exactly symmetric, and p/sqrt|p| keeps them finite
        for any gain.  Off the active set {lam > 0} u {gain > 0} of a
        coercive form, C = A exactly."""
        mag = magnitude(p)
        magf = np.maximum(mag, 1e-150)
        w = p / np.sqrt(magf)
        C = self.A_flat + gain * (w[:, None] * w[None, :])
        if self.degenerate:
            C += self.eps * (self.q - 2) * magf ** (self.q - 4) * (p[:, None] * p[None, :])
        C[np.diag_indices(self.d)] += lam + self.regularization(mag)
        return C

    def jacobian(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The dense Newton Jacobian, (m, m), at a point with D^s u = p: the
        form_matrix of flux_derivative(p, lam, gain), not symmetrized,
        written over every entry of out if given, else into a new array."""
        return self.form_matrix(self.flux_derivative(p, lam, gain), out)

    def linearization(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray):
        """The callable v -> J v alone, for J = jacobian(p, lam, gain)
        undamped, without forming J."""
        return self.form_action(self.flux_derivative(p, lam, gain))


# a refresh damps the assembled Jacobian's diagonal by at least
# _DAMPING (1 + |J_ii|), Krylov applies J itself, and a rise of the damping
# forces a refresh; Newton rejects a search direction once the line search
# falls below _MIN_STEP
_DAMPING = 1e-11
_MIN_STEP = 1e-7

# stagnation is counted once the merit is this far below where Newton started
_FLOOR = 1e-6

# a failed line search restarts the multiplier from u only when that moves it,
# somewhere, by more than this relative to 1 + lam
_RESTART = 1e-8

# Krylov iterations a Newton step may take before the Jacobian is assembled again
_KRYLOV_BUDGET = 40


class _LaggedInverse:
    """The inverse of the last assembled, damped Newton Jacobian, inverted
    in place (_refreshed_inverse), and counts.

    One object serves one continuation, its stages and their cold-start eps
    chains: the inverse and the counts are that continuation's state, so no
    two continuations share one.  A continuation holds one
    (m, m) array: storage, allocated at its first refresh or degenerate cold
    start (_feasible_start), into which every refresh assembles J and
    inverts it.  inv is None when storage holds no valid inverse: before the
    first refresh, while a refresh or a cold start overwrites it, and after
    a refresh fails.
    """

    __slots__ = ("inv", "storage", "jacobians", "krylov")

    def __init__(self):
        self.inv = None
        self.storage = None
        self.jacobians = 0  # Jacobians assembled and inverted
        self.krylov = 0  # Krylov iterations

    def overwrite(self, m: int) -> np.ndarray:
        """storage, allocated (m, m) at the first call, with inv set to None:
        the caller writes over it."""
        self.inv = None
        if self.storage is None:
            self.storage = np.empty((m, m))
        return self.storage


def _refreshed_inverse(
    prob: _PenaltyProblem, lagged: _LaggedInverse, p: np.ndarray, lam: np.ndarray, gain: np.ndarray, damping: float
):
    """J^-1 for J = jacobian(p, lam, gain), its diagonal damped by
    damping (1 + |J_ii|), assembled over lagged.storage (lagged.overwrite)
    and inverted there by block_inverse: the inverse is lagged.storage
    itself.  Raises LinAlgError as block_inverse does."""
    J = prob.jacobian(p, lam, gain, lagged.overwrite(prob.m))
    J[np.diag_indices_from(J)] += damping * (1.0 + np.abs(J.diagonal()))
    return block_inverse(J, prob.symmetric)


def _run_newton(
    prob: _PenaltyProblem, u0: np.ndarray, cfg: SolverConfig, lagged: _LaggedInverse, lam0: np.ndarray | None = None
):
    """Primal-dual semismooth Newton with a line search; returns (u, stop,
    iterations, |r|).

    The unknowns are u on the Omega nodes and the multiplier lam per box
    node, from lam0 or else k_eps(|D^s u0| - g), and the equations are

        R1 = weak_residual(u, p, lam + reg(|p|)) = 0,  p = D^s u,
        R2 = multiplier_equation(|p|, lam) = 0,

    reg the q-power coefficient (prob.regularization, 0 on a coercive
    form).  d lam is eliminated, its block being diagonal: the reduced
    system J du = -weak_residual(u, p, lam_t + reg(|p|)) has
    J = jacobian(p, lam, gain), and d lam = gain (p . D^s du)/|p| +
    lam_t - lam.  It is solved by PCG (GMRES when the form is not symmetric)
    on J itself (prob.linearization), preconditioned by lagged.inv, the
    inverse of a damped J, to the Eisenstat-Walker tolerance
    min(1e-3, max(0.9 (M_k / M_{k-1})^2, 1e-10)) |rhs|, tight because the
    recovered d lam amplifies the error in du by gain.  Without an inverse,
    or when the Krylov solve fails, the damped J is assembled and inverted
    in place at the current point by 2x2 blocks (_refreshed_inverse: GEMMs,
    and LAPACK only on leaves of at most BLOCK_LEAF rows), over the old
    inverse in lagged's one (m, m) array, and the step is its inverse
    applied to the right-hand side, the damped Newton step; a singular or
    non-finite inverse raises the damping instead, and the next step
    assembles J afresh.  The line search is one Armijo test on the merit
    M = (|R1|^2 / scale^2 + h^d |R2|^2)^(1/2), with lam projected onto
    [0, k_sat].  When it fails on a Krylov step above the rounding floor
    (M >= _FLOOR times its start), the next step comes from a fresh
    inverse: within its forcing tolerance a Krylov step can miss descent
    where J is ill-conditioned (the degenerate sweep's n=512, a = 0 for
    x > 0, s = 1, f = 1 case stalled on steps 9% off the exact one).
    Otherwise, when lam is off k_eps(|D^s u| - g), lam restarts there, and
    else the damping rises, and the next step assembles J afresh at it.

    The stop test is the primal one, |residual(u)| <= newton_tol scale, with
    lam = k_eps(|D^s u| - g).  stop is converged, stagnated, damping or
    budget.  Stagnated means 15 accepted steps in a row, taken once M has
    fallen to _FLOOR times its start, cut M no more than 1% below its best:
    the rounding floor of the stiff penalty.  Far above that floor a slow start
    (a cold solve under a source many times g) still counts as progress.
    """
    u = u0.copy()
    scale = 1.0 + float(np.linalg.norm(prob.rhs))
    root_hd = float(np.sqrt(prob.hd))
    k_sat = prob.fn.k_sat

    def merit(u, p, mag, lam):
        r1 = prob.weak_residual(u, p, lam + prob.regularization(mag))
        return float(np.hypot(norm(r1) / scale, root_hd * norm(prob.multiplier_equation(mag, lam)[0])))

    damping = _DAMPING
    p = prob.grad(u)
    mag = magnitude(p)
    lam = prob.fn.value(mag - prob.g_flat) if lam0 is None else np.clip(lam0, 0.0, k_sat)
    rnorm = norm(prob.residual(u, p))
    M, M_prev = merit(u, p, mag, lam), None
    krylov = pcg if prob.symmetric else gmres
    stop = "budget"
    it = 0
    best, since_best, floor = M, 0, _FLOOR * M
    tol = cfg.newton_tol * scale
    while rnorm > tol and it < cfg.max_iters:
        # stagnation at the floating-point floor of the stiff penalty
        if since_best >= 15:
            stop = "stagnated"
            break
        it += 1
        _, lam_t, gain = prob.multiplier_equation(mag, lam)
        b = -prob.weak_residual(u, p, lam_t + prob.regularization(mag))
        step, fresh = None, False
        if lagged.inv is not None:
            eta = 1e-3 if M_prev is None else min(1e-3, max(0.9 * (M / M_prev) ** 2, 1e-10))
            step, k = krylov(prob.linearization(p, lam, gain), b, lagged.inv, eta, _KRYLOV_BUDGET)
            lagged.krylov += k
        if step is None:
            lagged.jacobians += 1
            try:
                lagged.inv = _refreshed_inverse(prob, lagged, p, lam, gain, damping)
            except np.linalg.LinAlgError:
                damping = max(damping * 100, 1e-8)
                continue
            step, fresh = lagged.inv @ b, True
        dlam = gain * np.sum(p / np.maximum(mag, 1e-150) * prob.grad(step), axis=0) + lam_t - lam
        t = 1.0
        accepted = False
        while t >= _MIN_STEP:
            cand = u + t * step
            p_new = prob.grad(cand)
            mag_new = magnitude(p_new)
            lam_new = np.clip(lam + t * dlam, 0.0, k_sat)
            M_new = merit(cand, p_new, mag_new, lam_new)
            # a non-finite merit fails the test
            if M_new <= (1 - 1e-4 * t) * M:
                u, p, mag, lam, M_prev, M = cand, p_new, mag_new, lam_new, M, M_new
                accepted = True
                break
            t *= 0.5
        if not accepted and not fresh and M >= floor:
            lagged.inv = None  # take the step from a fresh inverse
            continue
        if not accepted:
            # a multiplier far from the primal relation can block every step:
            # restart it from u before damping the Jacobian, and measure
            # progress from the merit it restarts at.  At the rounding floor
            # lam already is that restart, up to rounding, and only the
            # damping moves.
            lam_u = prob.fn.value(mag - prob.g_flat)
            if np.max(np.abs(lam_u - lam) / (1.0 + lam)) > _RESTART:
                lam = lam_u
                M, M_prev = merit(u, p, mag, lam), None
                best = M
                continue
            damping = max(damping * 100, 1e-8)
            if damping > 1e6:
                stop = "damping"
                break
            lagged.inv = None  # the next step assembles J at the raised damping
            continue
        rnorm = norm(prob.residual(u, p))
        damping = max(_DAMPING, damping / 10)
        if M < 0.99 * best:
            best, since_best = M, 0
        elif M < floor:
            since_best += 1
    if rnorm <= tol:
        stop = "converged"
    return u, stop, it, rnorm


def _feasible_start(prob: _PenaltyProblem, lagged: _LaggedInverse) -> tuple[np.ndarray, np.ndarray]:
    """(u0, lam0): u0 = t* w inside the constraint set, where the penalty
    vanishes, and the multiplier lam0 = 1/t* at every box node.

    w solves the s-Laplacian system h^d G^T G w = rhs on the Omega nodes, and
    t* = min(1, min_x g / |D^s w|): h^d G^T G is assembled over
    lagged.storage (lagged.overwrite), the continuation's one (m, m) array,
    and inverted there by block_inverse.  The s-Laplacian is regular where
    the operator degenerates, so D^s u0 is nonzero almost everywhere and so
    is the eps |D^s u|^(q-2) term of the Jacobian; at u = 0 it vanishes.
    The flux lam0 D^s u0 = D^s w balances the source, so where A = 0 the
    weak residual at (u0, lam0) is the q-power term alone.

    Primal-dual Newton needs both halves.  On the 1D degenerate sweep of 80
    cases, it takes 1875 Newton steps from here; from lam0 = k_eps(|D^s u0|
    - g) = 0 it takes 2602; from u = 0 it fails 1 case (n = 512, a = 0 for
    x > 0, s = 1, f = 1 runs out of budget at eps = 3e-3) and takes 3041.
    """
    T = prob.fft.gram(np.eye(prob.d), lagged.overwrite(prob.m))
    T *= prob.hd
    w = block_inverse(T, True) @ prob.rhs
    over = max(1.0, float(np.max(magnitude(prob.grad(w)) / prob.g_flat)))
    return w / over, np.full(prob.N, over)


def solve_fixed_eps(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    cfg: SolverConfig,
    warm_start: Solution | None = None,
    *,
    lagged: _LaggedInverse | None = None,
) -> Solution:
    """Solve the penalized problem at the configured eps.

    Inexact primal-dual Newton (see _run_newton), globalized by one merit
    line search.  With warm_start, Newton starts at its u and its
    multiplier lam.  Without, it starts at u = 0 with lam = 0, or, when the
    form degenerates (WeakForm.degenerate: A = 0 and c = 0 at some Omega
    node), at the feasible s-Laplacian start of _feasible_start and its
    multiplier.  A degenerate cold start at eps < 0.1 first walks the eps
    chain 0.1, 0.025, ... down to eps: without it, 1D transport (n = 1024)
    runs out of 200 Newton steps at eps = 3e-3.  A coercive one needs none: primal-dual Newton, linear in
    log1p(lam), takes 9-13 steps from u = 0 at eps = 1e-2 to 1e-3 on 1D
    torsion and the 2D n=64 disc.  `lagged` carries the inverse Jacobian
    from the solve that gave warm_start (continuation_solve passes it);
    without it the first Newton step assembles one.

    Returns the last accepted iterate, with converged=False if Newton stops
    before the tolerance; its lam is k_eps(|D^s u| - g) at that u, not
    Newton's multiplier iterate.  notes holds "stop=<reason>" (converged,
    stagnated, damping or budget), "jacobians=<n>", the Jacobians assembled
    and inverted, and the Krylov iterations this call took, its cold-start
    chain included.
    """
    grid = op.grid
    prob = _PenaltyProblem(op, src, thr, s, cfg.eps)
    lagged = _LaggedInverse() if lagged is None else lagged
    jac0, kry0 = lagged.jacobians, lagged.krylov
    if warm_start is None and cfg.eps < 0.1 and prob.degenerate:
        e = 0.1
        while e > cfg.eps * 1.0001:
            chain_cfg = replace(cfg, eps=e, eps_schedule=())
            warm_start = solve_fixed_eps(op, src, thr, s, chain_cfg, warm_start, lagged=lagged)
            e = max(cfg.eps, 0.25 * e)
    mask = grid.masks().inside
    lam0 = None
    if warm_start is not None:
        u0 = warm_start.u.values[mask]
        lam0 = warm_start.lam.values.ravel()
    elif prob.degenerate:
        u0, lam0 = _feasible_start(prob, lagged)
    else:
        u0 = np.zeros(prob.m)
    u, stop, iters, rnorm = _run_newton(prob, u0, cfg, lagged, lam0)

    p = prob.grad(u)
    lam, _ = prob.flux_coeff(magnitude(p))
    return Solution.from_nodes(
        grid, prob.fft.nodes, u, p, lam,
        eps=cfg.eps,
        s=s,
        converged=stop == "converged",
        iterations=iters,
        residual_norm=rnorm,
        notes=(f"stop={stop}", f"jacobians={lagged.jacobians - jac0}", f"krylov={lagged.krylov - kry0}"),
    )


def continuation_solve(
    op: OperatorData,
    src: SourceData,
    thr: Threshold,
    s,
    cfg: SolverConfig,
) -> list[tuple[float, Solution, KKTReport]]:
    """Warm-started continuation along the decreasing eps schedule.

    One lagged inverse Jacobian serves every stage.  Raises RuntimeError
    naming the stop reason when a stage does not converge.
    """
    schedule = cfg.eps_schedule if cfg.eps_schedule else (cfg.eps,)
    out = []
    warm = None
    lagged = _LaggedInverse()
    for eps in schedule:
        stage_cfg = replace(cfg, eps=eps, eps_schedule=())
        sol = solve_fixed_eps(op, src, thr, s, stage_cfg, warm_start=warm, lagged=lagged)
        if not sol.converged:
            raise RuntimeError(
                f"continuation stage eps={eps} failed to converge: {sol.notes[0]} after "
                f"{sol.iterations} Newton iterations, residual {sol.residual_norm:.3e}"
            )
        out.append((eps, sol, kkt_report(sol, op, src, thr)))
        warm = sol
    return out


def kkt_report(sol: Solution, op: OperatorData, src: SourceData, thr: Threshold) -> KKTReport:
    """Constraint violation, complementarity and residual diagnostics.

    The operator is D^s of order sol.s, the order sol was solved at.  D^s u
    is G u on the Omega nodes, so sol.u must vanish off Omega, and a
    non-finite sol.eps raises ValueError naming it.  q = default_q(d, sol.s)
    for every solution, and the reported D^s u norm is the L^r one with
    r = q - 1.  The residuals of the limit system (flux coefficient lam) and
    of the penalized equation (lam + eps |D^s u|^(q-2) where the form
    degenerates) are the
    nodal weak residuals r of WeakForm; on a coercive form, which has no
    q-power term, the two coincide.  Every kkt_battery field v vanishes off
    the Omega nodes, so D^s v = G v|_Omega and L(u, v) + <coeff D^s u,
    D^s v> - F(v) equals r . v|_Omega exactly: with the battery as the rows
    of V (restricted to Omega), V r tests all fields at once, and each is
    scaled by ||D^s v||_2 = sqrt(h^d) |G v|_Omega|.  G is applied by FFT
    throughout, and V and the norms are built once per (grid, s), on the
    shared operator.
    """
    grid = op.grid
    mask = grid.masks().inside
    if np.any(sol.u.values[~mask]):
        raise ValueError("sol.u must vanish outside Omega")
    # the fields are finite by construction (ScalarField); sol.eps is not
    if not isfinite(sol.eps):
        raise ValueError("sol.eps must be finite")
    q = default_q(grid.dim, sol.s)
    form = WeakForm(op, src, sol.s)
    hd = form.hd
    u = sol.u.values[mask]
    p = form.grad(u)
    mag = magnitude(p)
    slack = mag - thr.g.ravel()
    lam = sol.lam.values.ravel()
    violation = float(np.max(np.maximum(slack, 0.0)))
    comp = hd * float(np.sum(lam * slack))
    v_measure = hd * float(np.count_nonzero(slack > np.sqrt(sol.eps)))
    k_l1 = hd * float(np.sum(np.abs(lam)))
    psi_l1 = hd * float(np.sum(magnitude(sol.psi.values)))

    V, norm_v = form.fft.battery
    r_eq = form.weak_residual(u, p, lam)
    r_pen = form.weak_residual(u, p, lam + _regularization(form, sol.eps, q, mag))
    keep = norm_v > 0
    tested = np.abs(V[keep] @ np.stack([r_eq, r_pen], axis=1)) / norm_v[keep, None]
    eq_res, pen_res = np.max(tested, axis=0, initial=0.0)

    r = q - 1.0
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
