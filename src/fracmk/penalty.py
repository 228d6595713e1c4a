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
the zero-extension space is enforced strongly.  The spectral D^s is a
lattice convolution, so the fractional gradient G of the nodal basis has
shifts of one real kernel as columns.  G v and G^T w are applied by FFT
(_OmegaFFT, built once per (grid, s)); the dense G is assembled only on
request.  The nodal weak residual is written once, in _PenaltyProblem, and
both the Newton iteration and the KKT report use it.

Each Newton system J s = -r is solved inexactly by preconditioned CG (GMRES
when the form is not symmetric) to an Eisenstat-Walker forcing tolerance.
J = h^d G^T C G + ... is never formed for this: J v costs a few FFTs.  The
preconditioner is the inverse of the last assembled, damped Jacobian; it is
kept through a continuation and its cold-start eps chain, and the dense J is
assembled again only when the Krylov solve misses its iteration budget.
That assembly is a weighted Gram: C's symmetric part is positive
semidefinite, so its per-node factor L L^T gives G^T C G = Z^T Z with
Z = L^T G, accumulated over row blocks by BLAS syrk.

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


class _OmegaFFT:
    """D^s of nodal values on the Omega nodes, and its adjoint, by FFT.

    Column i of the dense G is the real kernel kern_a = ifftn(m_a) rolled
    onto node i, so G v is the circular convolution of kern_a with v
    scattered onto the box, and G^T w = sum_a kern_a correlated with w_a,
    gathered on the nodes: both are products with sigma_a = rfftn(kern_a)
    and equal the dense products to rounding.  The diagonal of
    G^T diag(C) G is sum_ab C_ab correlated with kern_a kern_b, gathered
    the same way.  Immutable but for the dense G, which is built on first
    use (two concurrent first uses may both build it, to equal arrays), so
    concurrent solves can share one.
    """

    def __init__(self, grid: GridSpec, s: float):
        d = grid.dim
        sym = riesz_symbol(grid, s)
        kern = np.stack([np.fft.ifftn(sym[j]).real for j in range(d)])
        kern.flags.writeable = False
        self.d = d
        self.kern = kern
        self.shape = grid.shape
        self.axes = tuple(range(-d, 0))
        self.nodes = np.flatnonzero(grid.masks().inside.ravel())
        self.sigma = np.fft.rfftn(kern, axes=self.axes)
        self.sigma_conj = self.sigma.conj()
        self.pairs = [(a, b) for a in range(d) for b in range(a, d)]
        self.prod_conj = np.stack([np.fft.rfftn(kern[a] * kern[b]) for a, b in self.pairs]).conj()
        self._G = None

    @property
    def G(self) -> np.ndarray:
        """The dense D^s of the nodal basis, shape (d, n^d, m), read-only."""
        if self._G is None:
            d, N, m = self.d, self.kern[0].size, self.nodes.size
            if d * N * m > 6e7:
                raise ValueError("dense gradient matrix would be too large for this grid")
            axes = tuple(range(1, d + 1))
            G = np.empty((d, N, m))
            for i, node in enumerate(zip(*np.unravel_index(self.nodes, self.shape))):
                # D^s is a lattice convolution: the column of a node is the
                # kernel shifted onto it
                G[:, :, i] = np.roll(self.kern, node, axis=axes).reshape(d, N)
            G.flags.writeable = False
            self._G = G
        return self._G

    def _gather(self, spectrum: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spectrum, s=self.shape, axes=self.axes).ravel()[self.nodes]

    def grad(self, v: np.ndarray) -> np.ndarray:
        """G v, shape (d, N), for nodal values v of shape (m,)."""
        vhat = np.fft.rfftn(_scatter(v, self.nodes, self.kern[0].size).reshape(self.shape))
        return np.fft.irfftn(self.sigma * vhat, s=self.shape, axes=self.axes).reshape(self.d, -1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """G^T w on the nodes, shape (m,), for a box vector field w of shape (d, N)."""
        what = np.fft.rfftn(w.reshape((self.d,) + self.shape), axes=self.axes)
        return self._gather(np.sum(self.sigma_conj * what, axis=0))

    def gram_diag(self, C: np.ndarray) -> np.ndarray:
        """diag(sum_ab G_a^T diag(C_ab) G_b), shape (m,), for C of shape (d, d, N)."""
        sym = np.stack([C[a, a] if a == b else C[a, b] + C[b, a] for a, b in self.pairs])
        chat = np.fft.rfftn(sym.reshape((len(self.pairs),) + self.shape), axes=self.axes)
        return self._gather(np.sum(chat * self.prod_conj, axis=0))


# The localize sweep solves up to 4 values of s at once; twice that keeps each
# in-flight solve's operators cached between its stages.
@lru_cache(maxsize=8)
def _omega_fft(grid: GridSpec, s: float) -> _OmegaFFT:
    return _OmegaFFT(grid, s)


def _gradient_matrix(grid: GridSpec, s: float) -> np.ndarray:
    """Dense D^s of the Omega-node basis, (d, n^d, m): _omega_fft(grid, s).G."""
    return _omega_fft(grid, s).G


# One cache per (grid, s) holds the FFT pair and the dense G; it is counted
# and cleared under either name.
_gradient_matrix.cache_info = _omega_fft.cache_info
_gradient_matrix.cache_clear = _omega_fft.cache_clear


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


def _assemble_rhs(src: SourceData, fft: _OmegaFFT, hd: float) -> np.ndarray:
    """h^d (f_sharp + (D^s)^T f_vec) on the Omega nodes."""
    return hd * (src.f_sharp.ravel()[fft.nodes] + fft.adjoint(src.f_vec))


class _PenaltyProblem:
    """Residual/energy/Jacobian of the penalized weak form over Omega nodes."""

    def __init__(self, op: OperatorData, src: SourceData, thr: Threshold, s: float, eps: float, q: float):
        grid = op.grid
        self.grid = grid
        self.mask = grid.masks().inside
        self.hd = grid.cell_volume
        self.fft = _omega_fft(grid, s)
        self.d, self.N, self.m = grid.dim, self.mask.size, self.fft.nodes.size
        self.op = op
        self.thr = thr
        self.s = s
        self.eps = eps
        self.q = q
        self.fn = PenaltyFn(eps)
        self.g_flat = thr.g.ravel()
        self.rhs = _assemble_rhs(src, self.fft, self.hd)
        self.A_flat = op.A.reshape(self.d, self.d, -1)
        self.b_at = op.b[:, self.mask]  # (d, m)
        self.dvec_flat = op.dvec.reshape(self.d, -1)
        self.c_at = op.c[self.mask]
        self.unk_box_index = self.fft.nodes
        self.symmetric = bool(
            np.allclose(op.b, op.dvec) and np.allclose(op.A, np.swapaxes(op.A, 0, 1))
        )

    def grad(self, u: np.ndarray) -> np.ndarray:
        return self.fft.grad(u)

    def flux_coeff(self, mag: np.ndarray):
        k = self.fn.value(mag - self.g_flat)
        apen = k + self.eps * np.maximum(mag, 1e-150) ** (self.q - 2)
        return k, apen

    def _weak_form(self, u: np.ndarray, p: np.ndarray, flux: np.ndarray) -> np.ndarray:
        """h^d [G^T (flux + dvec u) + b . p + c u] on the Omega nodes, p = D^s u."""
        flux = flux + self.dvec_flat * _scatter(u, self.unk_box_index, self.N)[None]
        out = self.fft.adjoint(flux)
        out = out + np.sum(self.b_at * p[:, self.unk_box_index], axis=0) + self.c_at * u
        return self.hd * out

    def weak_residual(self, u: np.ndarray, p: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """h^d [G^T (A p + coeff p + dvec u) + b . p + c u] - rhs on the Omega nodes.

        p = D^s u on the box and coeff is an isotropic flux coefficient per box
        node.  Its dot product with v|_Omega, for any v vanishing off Omega,
        is L(u, v) + <coeff D^s u, D^s v> - F(v).
        """
        flux = np.einsum("abN,bN->aN", self.A_flat, p) + coeff[None] * p
        return self._weak_form(u, p, flux) - self.rhs

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

    def flux_derivative(self, p: np.ndarray) -> np.ndarray:
        """C = A + apen I + aniso p p^T per box node, (d, d, N): the derivative
        of the flux in D^s u.  Positive semidefinite, as A's symmetric part is
        and apen, aniso >= 0; p p^T is formed first so that the added term is
        exactly symmetric."""
        mag = np.sqrt(np.sum(p**2, axis=0))
        magf = np.maximum(mag, 1e-150)
        k = self.fn.value(mag - self.g_flat)
        kp = self.fn.derivative(mag - self.g_flat)
        apen = k + self.eps * magf ** (self.q - 2)
        aniso = kp / magf + self.eps * (self.q - 2) * magf ** (self.q - 4)
        C = self.A_flat + aniso * (p[:, None] * p[None, :])
        C[np.diag_indices(self.d)] += apen
        return C

    def jacobian(self, u: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        """The dense Newton Jacobian, (m, m)."""
        p = self.grad(u) if p is None else p
        G = self.fft.G
        J = _weighted_gram(G, self.flux_derivative(p))
        # d/du of the convection term G^T (dvec u) and of b . D^s u
        for a in range(self.d):
            dv, ba = self.dvec_flat[a, self.unk_box_index], self.b_at[a]
            if dv.any() or ba.any():
                Ga = G[a][self.unk_box_index]
                J += Ga.T * dv[None, :] + ba[:, None] * Ga
        J[np.diag_indices_from(J)] += self.c_at
        J *= self.hd
        return J

    def linearization(self, p: np.ndarray):
        """v -> J v and diag(J) at a point with D^s u = p, without forming J."""
        C = self.flux_derivative(p)
        # the convection and b terms put G_a[node i, i] = kern_a(0) on the
        # diagonal, which is 0: the symbol is odd
        diag = self.hd * (self.fft.gram_diag(C) + self.c_at)

        def apply(v: np.ndarray) -> np.ndarray:
            pv = self.fft.grad(v)
            return self._weak_form(v, pv, np.einsum("abN,bN->aN", C, pv))

        return apply, diag


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


# Krylov iterations a Newton step may take before the Jacobian is assembled again
_KRYLOV_BUDGET = 40


class _LaggedInverse:
    """The inverse of the last assembled, damped Newton Jacobian, and counts.

    One object serves one continuation, its stages and their cold-start eps
    chains, so concurrent solves never share one.
    """

    __slots__ = ("inv", "jacobians", "krylov")

    def __init__(self):
        self.inv = None
        self.jacobians = 0  # dense Jacobians assembled and inverted
        self.krylov = 0  # Krylov iterations


def _norm(x: np.ndarray) -> float:
    """|x|_2, non-finite only if an entry is: a trial point deep in the
    exponential wall has entries whose squares overflow a plain dot product."""
    big = float(np.max(np.abs(x), initial=0.0))
    return big * float(np.linalg.norm(x / big)) if 0.0 < big < np.inf else big


def _pcg(apply, b: np.ndarray, M: np.ndarray, eta: float, budget: int):
    """Preconditioned CG for apply(x) = b from x = 0, to |b - apply(x)| <= eta |b|.

    Returns (x, iterations); x is None when the budget runs out, a value
    turns non-finite or a curvature is not positive.  It iterates on b / |b|,
    so the products stay finite under the stiff penalty.
    """
    nb = _norm(b)
    res = b / nb
    x = np.zeros_like(b)
    z = M @ res
    d = z.copy()
    rz = res @ z
    for k in range(1, budget + 1):
        q = apply(d)
        dq = d @ q
        if not (np.isfinite(dq) and np.isfinite(rz) and dq > 0 and rz > 0):
            return None, k
        alpha = rz / dq
        x += alpha * d
        res -= alpha * q
        rn = _norm(res)
        if not np.isfinite(rn):
            return None, k
        if rn <= eta:
            return nb * x, k
        z = M @ res
        rz, rz_old = res @ z, rz
        d = z + (rz / rz_old) * d
    return None, budget


def _gmres(apply, b: np.ndarray, M: np.ndarray, eta: float, budget: int):
    """Right-preconditioned GMRES for apply(x) = b from x = 0, no restart.

    Same contract as _pcg.  The Arnoldi basis is orthogonalised by classical
    Gram-Schmidt applied twice.
    """
    nb = _norm(b)
    V = np.empty((budget + 1, b.size))
    V[0] = b / nb
    H = np.zeros((budget + 1, budget))
    e1 = np.zeros(budget + 1)
    e1[0] = 1.0
    for k in range(budget):
        w = apply(M @ V[k])
        basis = V[: k + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        H[: k + 1, k] = h + h2
        H[k + 1, k] = _norm(w)
        if not np.all(np.isfinite(H[: k + 2, k])):
            return None, k + 1
        Hk = H[: k + 2, : k + 1]
        y = np.linalg.lstsq(Hk, e1[: k + 2], rcond=None)[0]
        if np.linalg.norm(e1[: k + 2] - Hk @ y) <= eta:
            return nb * (M @ (y @ basis)), k + 1
        if H[k + 1, k] == 0.0:
            return None, k + 1
        V[k + 1] = w / H[k + 1, k]
    return None, budget


def _run_newton(prob: _PenaltyProblem, u0: np.ndarray, cfg: SolverConfig, lagged: _LaggedInverse):
    """Inexact Newton with a line search; returns (u, stop, iterations, |r|, energies).

    Each step solves J s = -r by PCG (GMRES when the form is not symmetric)
    preconditioned by lagged.inv, to the Eisenstat-Walker tolerance
    min(0.1, max(0.9 (|r_k| / |r_{k-1}|)^2, 1e-10)) |r_k|.  Without an
    inverse, or when the Krylov solve fails, the damped Jacobian is
    assembled and inverted at the current point and the step is exact.
    stop is converged, stagnated, damping or budget.
    """
    u = u0.copy()
    scale = 1.0 + float(np.linalg.norm(prob.rhs))
    hist = []
    damping = cfg.damping
    p = prob.grad(u)
    r = prob.residual(u, p)
    rnorm = _norm(r)
    rprev = None
    energy = prob.energy(u, p) if prob.symmetric else None
    krylov = _pcg if prob.symmetric else _gmres
    stop = "budget"
    it = 0
    best, since_best = rnorm, 0
    while rnorm > cfg.newton_tol * scale and it < cfg.max_iters:
        # stagnation at the floating-point floor of the stiff penalty
        if since_best >= 15:
            stop = "stagnated"
            break
        it += 1
        step = None
        if lagged.inv is not None:
            apply, diag = prob.linearization(p)
            damp = damping * (1.0 + np.abs(diag))
            eta = 0.1 if rprev is None else min(0.1, max(0.9 * (rnorm / rprev) ** 2, 1e-10))
            step, k = krylov(lambda v: apply(v) + damp * v, -r, lagged.inv, eta, _KRYLOV_BUDGET)
            lagged.krylov += k
        if step is None:
            lagged.inv = None  # free the old inverse before assembling J
            J = prob.jacobian(u, p)
            J[np.diag_indices_from(J)] += damping * (1.0 + np.abs(J.diagonal()))
            lagged.jacobians += 1
            try:
                lagged.inv = np.linalg.inv(J)
            except np.linalg.LinAlgError:
                damping = max(damping * 100, 1e-8)
                continue
            finally:
                del J
            step = lagged.inv @ -r
        t = 1.0
        accepted = False
        slope = float(r @ step)
        while t >= cfg.min_step:
            cand = u + t * step
            p_new = prob.grad(cand)
            r_new = prob.residual(cand, p_new)
            rn = _norm(r_new)
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
                u, p, r, rprev, rnorm, energy = cand, p_new, r_new, rnorm, rn, e_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            damping = max(damping * 100, 1e-8)
            if damping > 1e6:
                stop = "damping"
                break
            continue
        damping = max(cfg.damping, damping / 10)
        if prob.symmetric:
            hist.append(energy)
        if rnorm < 0.99 * best:
            best, since_best = rnorm, 0
        else:
            since_best += 1
    if rnorm <= cfg.newton_tol * scale:
        stop = "converged"
    return u, stop, it, rnorm, tuple(hist)


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

    Inexact Newton (see _run_newton) with an energy line search when the
    form is symmetric (Armijo on the convex discrete energy), a
    residual-reduction line search otherwise.  A cold start at small eps
    first walks a short internal geometric eps chain down from 0.1, since
    the exponential wall defeats plain Newton from zero.  `lagged` carries
    the preconditioner from the solve that gave warm_start (continuation_solve
    passes it); without it the first Newton step assembles the Jacobian.

    Returns the last accepted iterate, with converged=False if Newton stops
    before the tolerance.  notes holds "stop=<reason>" (converged,
    stagnated, damping or budget) and the dense Jacobians and Krylov
    iterations this call took, its cold-start chain included.
    """
    sv = _as_s(s)
    grid = op.grid
    q = cfg.q if cfg.q is not None else default_q(grid.dim, sv)
    lagged = _LaggedInverse() if lagged is None else lagged
    jac0, kry0 = lagged.jacobians, lagged.krylov
    if warm_start is None and cfg.eps < 0.1:
        e = 0.1
        while e > cfg.eps * 1.0001:
            chain_cfg = replace(cfg, eps=e, eps_schedule=())
            warm_start = solve_fixed_eps(op, src, thr, s, chain_cfg, warm_start, lagged=lagged)
            e = max(cfg.eps, 0.25 * e)
    prob = _PenaltyProblem(op, src, thr, sv, cfg.eps, q)
    mask = grid.masks().inside
    if warm_start is not None:
        u0 = warm_start.u.values[mask]
    else:
        u0 = np.zeros(int(mask.sum()))
    u, stop, iters, rnorm, hist = _run_newton(prob, u0, cfg, lagged)

    p = prob.grad(u)
    lam, _ = prob.flux_coeff(np.sqrt(np.sum(p**2, axis=0)))
    return Solution(
        u=ScalarField(grid, _scatter(u, prob.unk_box_index, prob.N).reshape(grid.shape)),
        lam=ScalarField(grid, lam.reshape(grid.shape)),
        psi=VectorField(grid, (lam * p).reshape((grid.dim,) + grid.shape)),
        eps=cfg.eps,
        q=q,
        s=sv,
        converged=stop == "converged",
        iterations=iters,
        residual_norm=rnorm,
        energy_history=hist,
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

    One preconditioner serves every stage.  Raises RuntimeError naming the
    stop reason when a stage does not converge.
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
    ||D^s v||_2 = sqrt(h^d) |G v|_Omega|.  G is applied by FFT throughout.
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
    norm_v = np.sqrt(hd * np.array([np.sum(prob.grad(v) ** 2) for v in V]))
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
