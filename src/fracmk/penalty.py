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

Unknowns are the values of u at the Omega-interior nodes, so membership in
the zero-extension space is enforced strongly.  The spectral D^s is a
lattice convolution, so the fractional gradient G of the nodal basis has
shifts of one real kernel as columns.  One operator per (grid, s),
_OmegaFFT, applies G v and G^T w by FFT and hands out blocks of those
columns; G itself is never stored.  The nodal weak residual is written
once, in _PenaltyProblem, and the Newton iteration, its Jacobian and the
KKT report all use it; its dense matrix is assembled in one place,
_PenaltyProblem.form_matrix, for the Newton Jacobian and the oracles' Q.

Each reduced Newton system J s = -r is solved inexactly by preconditioned
CG (GMRES when the form is not symmetric) to an Eisenstat-Walker forcing
tolerance.  J = h^d G^T C G + ... is never formed for this: J v costs a few
FFTs.  The preconditioner is the inverse of the last assembled, damped
matrix P, taken by 2x2 blocks with GEMMs (_block_inverse); it is kept
through a continuation and its cold-start eps chain, and P is assembled
again only when the Krylov solve misses its iteration budget: an
approximate Jacobian inside a Krylov solve with the exact J v
(Jacobian-free Newton-Krylov: Knoll & Keyes, J. Comput. Phys. 193, 2004).
Where A is one positive definite tensor A0 on the box, P is the Toeplitz
h^d G^T A0 G, read off the kernel's cross-correlations in one inverse FFT,
plus the exact rows of the multiplier's active set S, read off the kernel,
and the diagonal of the O(eps) q-power term elsewhere; P = J at u = 0.
Otherwise (A varying, or A = 0 in transport) P is J, and its assembly
applies the same weak form to blocks of unit vectors e_j, with D^s e_j read
off the kernel, so the dense J and the Krylov J v share one definition;
where C is one tensor at every box node, J is Toeplitz and read off the
kernel as P is.  Where b and dvec both vanish, the weak form and the
Toeplitz matrix skip their terms, which would add exact zeros.

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
from functools import cached_property, lru_cache
from math import ceil, isfinite
from numbers import Integral

import numpy as np

from .forms import OperatorData, SourceData, Threshold
from .grid import GridSpec, ScalarField, VectorField, lp_norm, random_bumps
from .riesz import EXP_CAP, riesz_symbol


@dataclass(frozen=True)
class SolverConfig:
    """Penalty parameter, regularization power and iteration controls."""

    eps: float = 1e-2
    q: float | None = None  # default ceil(1 + d/s) + 1
    eps_schedule: tuple[float, ...] = ()
    newton_tol: float = 1e-8
    max_iters: int = 120

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.q is not None and self.q <= 2:
            raise ValueError("q must exceed 2")
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


# Values per block of columns G e_j (0.5 MB): the blocked assemblies hold a
# few arrays of this size, far under d * N * m on every grid past a few nodes.
_BLOCK_VALUES = 1 << 16


# numpy's n-d transforms spend as long checking their arguments as a 1D
# transform of a few thousand points takes; these run the sequence rfftn and
# irfftn run inside, on the last d axes, so the results are bit-identical
def _rfft_box(x: np.ndarray, d: int) -> np.ndarray:
    """np.fft.rfftn of x over its last d axes."""
    out = np.fft.rfft(x, axis=-1)
    for axis in range(-2, -d - 1, -1):
        out = np.fft.fft(out, axis=axis)
    return out


def _irfft_box(spectrum: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """np.fft.irfftn of spectrum over its last len(shape) axes, to that shape."""
    for axis in range(-len(shape), -1):
        spectrum = np.fft.ifft(spectrum, axis=axis)
    return np.fft.irfft(spectrum, shape[-1], axis=-1)


class _OmegaFFT:
    """D^s of nodal values on the Omega nodes, and its adjoint, by FFT.

    D^s is a lattice convolution: G e_i, the gradient of the basis function
    of node i, is the real kernel kern_a = ifftn(m_a) rolled onto node i.
    column_blocks hands out those columns, each a window into a 2x-tiled
    copy of the kernel, so no FFT and no dense G.  G v is the circular
    convolution of kern_a with v scattered onto the box, and
    G^T w = sum_a kern_a correlated with w_a, gathered on the nodes: both
    are products with sigma_a = rfftn(kern_a).  The diagonal of
    G^T diag(C) G is sum_ab C_ab correlated with kern_a kern_b, gathered the
    same way.  For a constant d x d tensor C0, G^T C0 G is Toeplitz in the
    node offsets: gram reads it off the kernel's cross-correlations, one
    irfftn, through offset_rows, which reads a tiled copy as column_blocks
    does, so the s-Laplacian start and a Jacobian at u = 0 take no FFT per
    column; offset_rows of the kernel itself gives rows of G at any box
    nodes.  Immutable but for the KKT battery, which is built on first
    use, so concurrent solves can share one.
    """

    def __init__(self, grid: GridSpec, s: float):
        d = grid.dim
        sym = riesz_symbol(grid, s)
        kern = np.stack([np.fft.ifftn(sym[j]).real for j in range(d)])
        kern.flags.writeable = False
        self.grid = grid
        self.d = d
        self.kern = kern
        self.shape = grid.shape
        self.N = kern[0].size
        self.nodes = np.flatnonzero(grid.masks().inside.ravel())
        self.sigma = _rfft_box(kern, d)
        self.sigma_conj = self.sigma.conj()
        self.pairs = [(a, b) for a in range(d) for b in range(a, d)]
        self.prod_conj = np.stack([_rfft_box(kern[a] * kern[b], d) for a, b in self.pairs]).conj()
        # the window at offset n - x of the tiled kernel is the kernel rolled onto x
        tiled = np.tile(np.moveaxis(kern, 0, -1), (2,) * d + (1,))
        self._windows = np.lib.stride_tricks.sliding_window_view(tiled, self.shape, axis=tuple(range(d)))
        self._offsets = tuple(n - x for n, x in zip(self.shape, np.unravel_index(self.nodes, self.shape)))

    def column_blocks(self):
        """Yield (j, G e_j for the nodes j) over consecutive slices j of the
        nodes; each block has shape (len(j), d, N) and is a fresh array."""
        m = self.nodes.size
        step = max(1, _BLOCK_VALUES // (self.d * self.N))
        for j0 in range(0, m, step):
            j = slice(j0, min(j0 + step, m))
            yield j, np.ascontiguousarray(self._windows[tuple(o[j] for o in self._offsets)]).reshape(-1, self.d, self.N)

    def _gather(self, spectrum: np.ndarray) -> np.ndarray:
        box = _irfft_box(spectrum, self.shape)
        return box.reshape(box.shape[: -self.d] + (self.N,))[..., self.nodes]

    def grad(self, v: np.ndarray) -> np.ndarray:
        """G v, shape (d, N), for nodal values v of shape (m,)."""
        return self.box_grad(_scatter(v, self.nodes, self.N))

    def box_grad(self, v_box: np.ndarray) -> np.ndarray:
        """G v, shape (d, N), for v scattered onto the box, shape (N,)."""
        vhat = _rfft_box(v_box.reshape(self.shape), self.d)
        return _irfft_box(self.sigma * vhat, self.shape).reshape(self.d, -1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """G^T w on the nodes, shape (..., m), for box vector fields w of shape (..., d, N)."""
        what = _rfft_box(w.reshape(w.shape[:-1] + self.shape), self.d)
        return self._gather(np.sum(self.sigma_conj * what, axis=-self.d - 1))

    def gram_diag(self, C: np.ndarray) -> np.ndarray:
        """diag(sum_ab G_a^T diag(C_ab) G_b), shape (m,), for C of shape (d, d, N)."""
        sym = np.stack([C[a, a] if a == b else C[a, b] + C[b, a] for a, b in self.pairs])
        chat = _rfft_box(sym.reshape((len(self.pairs),) + self.shape), self.d)
        return self._gather(np.sum(chat * self.prod_conj, axis=0))

    def offset_rows(self, fields: np.ndarray, points: np.ndarray | None = None):
        """Yield (i, F(x_i - x_j) for the box nodes x_i of points[i] and every
        Omega node x_j) over consecutive slices i of points (flat box indices,
        the Omega nodes by default), for box fields F of shape (k,) + grid
        shape; each block has shape (k, len(i), m).  With F = kern, the block
        holds the rows points[i] of G.

        The offsets are read from a 2x-tiled copy of F, as column_blocks reads
        G e_j: no FFT, and no index array larger than a block.
        """
        points = self.nodes if points is None else points
        k, m = fields.shape[0], self.nodes.size
        tiled_shape = tuple(2 * n for n in self.shape)
        tiled = np.tile(fields, (1,) + (2,) * self.d).reshape(k, -1)
        # flat index of x_i + (n - x_j) in the tiled box is rows[i] + cols[j]
        rows = np.ravel_multi_index(np.unravel_index(points, self.shape), tiled_shape)
        cols = np.ravel_multi_index(self._offsets, tiled_shape)
        step = max(1, _BLOCK_VALUES // (k * m))
        for i0 in range(0, points.size, step):
            i = slice(i0, min(i0 + step, points.size))
            yield i, np.take(tiled, rows[i, None] + cols[None, :], axis=1)

    def gram(self, C0: np.ndarray) -> np.ndarray:
        """sum_ab C0_ab G_a^T G_b on the nodes, (m, m), for a constant (d, d) C0.

        The matrix is Toeplitz in the node offsets: its entry (i, j) is
        R(x_i - x_j), where R = sum_ab C0_ab kern_a cross-correlated with
        kern_b is one irfftn of sum_ab C0_ab conj(sigma_a) sigma_b, read
        through offset_rows.  gram(I) is the s-Laplacian G^T G.
        """
        spec = sum(
            C0[a, b] * (np.abs(self.sigma[a]) ** 2 if a == b else self.sigma_conj[a] * self.sigma[b])
            for a in range(self.d)
            for b in range(self.d)
        )
        R = _irfft_box(spec, self.shape)
        T = np.empty((self.nodes.size,) * 2)
        for i, block in self.offset_rows(R[None]):
            T[i] = block[0]
        return T

    @cached_property
    def battery(self) -> tuple[np.ndarray, np.ndarray]:
        """The kkt_battery fields on the Omega nodes as rows V, and their norms
        ||D^s v||_2 = sqrt(h^d) |G v|; read-only, built on first use."""
        V = np.stack([v.values.ravel()[self.nodes] for v in kkt_battery(self.grid)])
        norm_v = np.sqrt(self.grid.cell_volume * np.array([np.sum(self.grad(v) ** 2) for v in V]))
        V.flags.writeable = norm_v.flags.writeable = False
        return V, norm_v


# The localize sweep solves up to 4 values of s at once; twice that keeps each
# in-flight solve's operators cached between its stages.
@lru_cache(maxsize=8)
def _omega_fft(grid: GridSpec, s: float) -> _OmegaFFT:
    return _OmegaFFT(grid, s)


class _PenaltyProblem:
    """Residual/energy/Jacobian of the penalized weak form over Omega nodes."""

    def __init__(self, op: OperatorData, src: SourceData, thr: Threshold, s: float, eps: float, q: float):
        grid = op.grid
        self.grid = grid
        self.hd = grid.cell_volume
        self.fft = _omega_fft(grid, s)
        nodes = self.fft.nodes
        self.d, self.N, self.m = grid.dim, self.fft.N, nodes.size
        self.s = s
        self.eps = eps
        self.q = q
        self.fn = PenaltyFn(eps)
        self.g_flat = thr.g.ravel()
        # h^d (f_sharp + (D^s)^T f_vec) on the Omega nodes
        self.rhs = self.hd * (src.f_sharp.ravel()[nodes] + self.fft.adjoint(src.f_vec.reshape(self.d, -1)))
        self.A_flat = op.A.reshape(self.d, self.d, -1)
        self.b_at = op.b.reshape(self.d, -1)[:, nodes]  # (d, m)
        self.dvec_flat = op.dvec.reshape(self.d, -1)
        self.c_at = op.c.ravel()[nodes]
        # the weak form's coefficients, h^d folded in
        self.hb_at = self.hd * self.b_at
        self.hdvec = self.hd * self.dvec_flat
        self.hc_at = self.hd * self.c_at
        self.symmetric = bool(
            np.allclose(op.b, op.dvec) and np.allclose(op.A, np.swapaxes(op.A, 0, 1))
        )
        # whether the b and dvec terms exist: where both vanish, the weak form
        # and _toeplitz skip them, as they would add exact zeros
        self.convection = bool(np.any(self.b_at) or np.any(self.dvec_flat))
        # A as one tensor A0 on the whole box whose symmetric part is positive
        # definite, else None: then preconditioner has a Toeplitz principal part
        A0 = self.A_flat[..., 0].copy()
        constant = np.all(self.A_flat == A0[..., None])
        self.A0 = A0 if constant and np.all(np.linalg.eigvalsh(A0 + A0.T) > 0) else None

    def grad(self, u: np.ndarray) -> np.ndarray:
        return self.fft.grad(u)

    def regularization(self, mag: np.ndarray) -> np.ndarray:
        """eps |D^s u|^(q-2) per box node, the coefficient of the q-power term."""
        return self.eps * np.maximum(mag, 1e-150) ** (self.q - 2)

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

    def _weak_form(self, u: np.ndarray, p: np.ndarray, hflux: np.ndarray, u_box: np.ndarray | None = None):
        """h^d [G^T (flux + dvec u) + b . p + c u] on the Omega nodes, p = D^s u.

        hflux is h^d flux; u_box, if given, is u scattered onto the box.  u
        (..., m), p and hflux (..., d, N) may share leading batch axes.
        """
        if self.convection:
            u_box = _scatter(u, self.fft.nodes, self.N) if u_box is None else u_box
            out = self.fft.adjoint(hflux + self.hdvec * u_box[..., None, :])
            out += np.einsum("aj,...aj->...j", self.hb_at, p[..., self.fft.nodes])
        else:
            out = self.fft.adjoint(hflux)
        out += self.hc_at * u
        return out

    def weak_residual(self, u: np.ndarray, p: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """h^d [G^T (A p + coeff p + dvec u) + b . p + c u] - rhs on the Omega nodes.

        p = D^s u on the box and coeff is an isotropic flux coefficient per box
        node.  Its dot product with v|_Omega, for any v vanishing off Omega,
        is L(u, v) + <coeff D^s u, D^s v> - F(v).
        """
        flux = np.einsum("abN,bN->aN", self.A_flat, p) + coeff[None] * p
        flux *= self.hd
        return self._weak_form(u, p, flux) - self.rhs

    # residual and energy take p = D^s u when the caller has it
    def residual(self, u: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        p = self.grad(u) if p is None else p
        _, apen = self.flux_coeff(_magnitude(p))
        return self.weak_residual(u, p, apen)

    def energy(self, u: np.ndarray, p: np.ndarray | None = None) -> float:
        p = self.grad(u) if p is None else p
        mag = _magnitude(p)
        quad = 0.5 * np.sum(np.einsum("abN,bN->aN", self.A_flat, p) * p)
        conv = np.sum(self.dvec_flat[:, self.fft.nodes] * p[:, self.fft.nodes] * u[None])
        low = 0.5 * np.sum(self.c_at * u**2)
        pen = np.sum(self.fn.antiderivative_radial(mag, self.g_flat))
        reg = (self.eps / self.q) * np.sum(np.maximum(mag, 0.0) ** self.q)
        return float(self.hd * (quad + conv + low + pen + reg) - self.rhs @ u)

    def flux_derivative(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """C = A + (lam + reg) I + (gain/|p| + reg') p p^T per box node,
        (d, d, N): the derivative of the flux in D^s u when the multiplier
        lam moves by gain d|D^s u|.  Positive semidefinite, as A's symmetric
        part is and lam, gain >= 0; the outer products are formed first so
        that the added terms are exactly symmetric, and p/sqrt|p| keeps them
        finite for any gain."""
        mag = _magnitude(p)
        magf = np.maximum(mag, 1e-150)
        w = p / np.sqrt(magf)
        C = self.A_flat + gain * (w[:, None] * w[None, :])
        C += self.eps * (self.q - 2) * magf ** (self.q - 4) * (p[:, None] * p[None, :])
        C[np.diag_indices(self.d)] += lam + self.regularization(mag)
        return C

    def form_matrix(self, C: np.ndarray) -> np.ndarray:
        """The linearized weak form as a dense (m, m) matrix,
        h^d G^T C G plus the b, dvec and c terms, for a flux derivative C of
        shape (d, d, N) with h^d folded in; not symmetrized.

        When C is one tensor C0 at every box node, as at u = 0 with a
        constant A, the matrix is _toeplitz(C0).  Otherwise column j is the
        weak form at e_j, with D^s e_j a column of G, taken a block at a time.
        """
        if np.all(C == C[..., :1]):
            return self._toeplitz(C[..., 0])
        J = np.empty((self.m, self.m))
        for j, P in self.fft.column_blocks():
            E = np.zeros((P.shape[0], self.m))
            E[:, j] = np.eye(P.shape[0])
            J[:, j] = self._weak_form(E, P, np.einsum("abN,kbN->kaN", C, P)).T
        return J

    def jacobian(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """The dense Newton Jacobian, (m, m), at a point with D^s u = p: the
        form_matrix of h^d flux_derivative(p, lam, gain), symmetrized."""
        C = self.flux_derivative(p, lam, gain)
        C *= self.hd
        return self._symmetrized(self.form_matrix(C))

    def preconditioner(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """The matrix a Newton refresh inverts, (m, m), at a point with
        D^s u = p: jacobian(p, lam, gain) itself unless A is one positive
        definite tensor A0 on the box.  Then

            P = h^d [G^T A0 G + G_S^T dC_S G_S + diag(G^T dC_S' G)] + the b, dvec and c terms,

        with dC = C - A0 for C = flux_derivative(p, lam, gain), S = {lam > 0}
        u {gain > 0} the multiplier's active set and S' the other box nodes.
        Off S, dC is the O(eps) q-power term, and P keeps only its diagonal:
        P - J is symmetric, with a zero diagonal, and P = J where S is empty
        and C = A0, as at u = 0.  The first term and the b, dvec and c terms
        are _toeplitz(h^d A0), and add_active_rows adds the second, so P
        takes no FFT per column.  Where A varies or is not definite (A = 0 in
        transport), no such principal part exists.
        """
        if self.A0 is None:
            return self.jacobian(p, lam, gain)
        dC = self.flux_derivative(p, lam, gain)
        dC -= self.A_flat
        dC *= self.hd
        S = np.flatnonzero((lam > 0) | (gain > 0))
        P = self.add_active_rows(self._toeplitz(self.hd * self.A0), dC, S)
        dC[..., S] = 0.0
        P[np.diag_indices(self.m)] += self.fft.gram_diag(dC)
        return self._symmetrized(P)

    def add_active_rows(self, P: np.ndarray, C: np.ndarray, S: np.ndarray) -> np.ndarray:
        """P += G_S^T C_S G_S, in place, for box nodes S and a (d, d, N) C with
        h^d folded in: the rows G_S are read off the kernel a block at a time.
        The refresh adds its active set so, and the QP oracle its multiplier's."""
        rows = max(1, _BLOCK_VALUES // self.m)
        for i, K in self.fft.offset_rows(self.fft.kern, S):
            # K[a] holds the rows S[i] of G_a, and Y[a] those of sum_b C_ab G_b
            Y = np.einsum("abk,bkj->akj", C[..., S[i]], K).reshape(-1, self.m)
            K = K.reshape(-1, self.m)
            for j in range(0, self.m, rows):
                P[j : j + rows] += K[:, j : j + rows].T @ Y
        return P

    def _toeplitz(self, C0: np.ndarray) -> np.ndarray:
        """h^d G^T C0 G plus the b, dvec and c terms of J, (m, m), for one
        (d, d) tensor C0 with h^d folded in.

        The Gram is Toeplitz in the node offsets, and _OmegaFFT.gram reads it
        off the kernel's cross-correlations.  The b and dvec terms read kern_a
        at the same offsets: G_a[x_i, j] is kern_a(x_i - x_j), and G_a[x_j, i]
        its negative, as the kernel is odd.
        """
        J = self.fft.gram(C0)
        if self.convection:
            hdvec_at = self.hdvec[:, self.fft.nodes]
            for i, K in self.fft.offset_rows(self.fft.kern):
                for a in range(self.d):
                    J[i] += (self.hb_at[a, i, None] - hdvec_at[a]) * K[a]
        J[np.diag_indices(self.m)] += self.hc_at
        return J

    def _symmetrized(self, J: np.ndarray) -> np.ndarray:
        """J, made exactly symmetric in place when the form is symmetric.

        FFT rounding leaves J asymmetric at 1e-16, which inv(J) can amplify
        by cond(J) (1e18 at a degenerate cold start): PCG needs an exactly
        symmetric preconditioner.  The mean (J + J^T) / 2 is taken a block of
        rows at a time, so no second (m, m) array is held.
        """
        if self.symmetric:
            rows = max(1, _BLOCK_VALUES // self.m)
            for i0 in range(0, self.m, rows):
                i, rest = slice(i0, i0 + rows), slice(i0, None)
                mean = J[i, rest] + J[rest, i].T
                mean *= 0.5
                J[i, rest] = mean
                J[rest, i] = mean.T
        return J

    def linearization(self, p: np.ndarray, lam: np.ndarray, gain: np.ndarray):
        """v -> J v and diag(J) for J = jacobian(p, lam, gain), without forming J."""
        C = self.flux_derivative(p, lam, gain)
        C *= self.hd
        # the convection and b terms put G_a[node i, i] = kern_a(0) on the
        # diagonal, which is 0: the symbol is odd
        diag = self.fft.gram_diag(C) + self.hc_at

        def apply(v: np.ndarray) -> np.ndarray:
            v_box = _scatter(v, self.fft.nodes, self.N)
            pv = self.fft.box_grad(v_box)
            return self._weak_form(v, pv, np.einsum("abN,bN->aN", C, pv), v_box)

        return apply, diag


def _magnitude(p: np.ndarray) -> np.ndarray:
    """|p| per node, for vector fields p of shape (d, ...)."""
    return np.sqrt(np.einsum("a...,a...->...", p, p))


def _scatter(u: np.ndarray, idx: np.ndarray, N: int) -> np.ndarray:
    out = np.zeros(u.shape[:-1] + (N,))
    out[..., idx] = u
    return out


def _solution(
    grid: GridSpec, nodes: np.ndarray, u: np.ndarray, p: np.ndarray, lam: np.ndarray, **diagnostics
) -> Solution:
    """The Solution of u on the Omega nodes, p = D^s u on the box ((d, N) or
    flat) and lambda per box node: u is scattered onto the box, and the flux
    is psi = lambda D^s u.  diagnostics are the remaining Solution fields."""
    lam = lam.reshape(grid.shape)
    return Solution(
        u=ScalarField(grid, _scatter(u, nodes, lam.size).reshape(grid.shape)),
        lam=ScalarField(grid, lam),
        psi=VectorField(grid, lam * p.reshape((grid.dim,) + grid.shape)),
        **diagnostics,
    )


# Newton damps the Jacobian diagonal by at least _DAMPING (1 + |J_ii|), and
# rejects a search direction once the line search falls below _MIN_STEP
_DAMPING = 1e-11
_MIN_STEP = 1e-7

# stagnation is counted once the merit is this far below where Newton started
_FLOOR = 1e-6

# a failed line search restarts the multiplier from u only when that moves it,
# somewhere, by more than this relative to 1 + lam
_RESTART = 1e-8

# Krylov iterations a Newton step may take before the Jacobian is assembled again
_KRYLOV_BUDGET = 40

# _block_inverse and _tril_inverse invert blocks up to this size with LAPACK,
# larger ones by halves
_BLOCK_LEAF = 64


def _block_inverse(P: np.ndarray) -> np.ndarray:
    """P^-1 for a square P whose leading blocks are all nonsingular, as a
    matrix with a positive definite symmetric part has.

    By 2x2 blocks, with Ai = P11^-1, X = P21 Ai, Z = Ai P12, the Schur
    complement's inverse Si = (P22 - X P12)^-1 and Y = Si X,

        P^-1 = [[Ai + Z Y, -Z Si], [-Y, Si]],

    the two half-size inverses recursively: above _BLOCK_LEAF all other work
    is six GEMMs, 2m^3 flops in all, as many as numpy's inv, which spends
    them in an LU and the inverse of its factors.  No pivoting: Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 13.
    Raises LinAlgError when a leaf is singular or an inverse not finite.
    """
    m = P.shape[0]
    if m <= _BLOCK_LEAF:
        out = np.linalg.inv(P)
    else:
        k = m // 2
        P12 = P[:k, k:]
        Ai = _block_inverse(P[:k, :k])
        X = P[k:, :k] @ Ai
        S = X @ P12
        np.subtract(P[k:, k:], S, out=S)
        Si = _block_inverse(S)
        del S
        Y = Si @ X
        del X
        Z = Ai @ P12
        out = np.empty_like(P)
        out[:k, :k] = Z @ Y
        out[:k, :k] += Ai
        del Ai
        out[:k, k:] = Z @ Si
        np.negative(out[:k, k:], out=out[:k, k:])
        del Z
        np.negative(Y, out=out[k:, :k])
        out[k:, k:] = Si
    if not np.all(np.isfinite(out)):
        raise np.linalg.LinAlgError("the block inverse is not finite")
    return out


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for a nonsingular lower-triangular L, exactly zero above the diagonal.

    By 2x2 blocks, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]:
    above _BLOCK_LEAF the only work besides the two half-size inverses is
    two GEMMs, about 2m^3/3 flops in all, where numpy's inv factors L as a
    general matrix and inverts the LU, 2m^3.  np.tril drops what a pivoted
    LU leaves above a leaf's diagonal.
    """
    m = L.shape[0]
    if m <= _BLOCK_LEAF:
        return np.tril(np.linalg.inv(L))
    k = m // 2
    Ai, Di = _tril_inverse(L[:k, :k]), _tril_inverse(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k], out[k:, k:] = Ai, Di
    out[k:, :k] = -(Di @ (L[k:, :k] @ Ai))
    return out


class _LaggedInverse:
    """The inverse of the last assembled, damped Newton preconditioner, taken
    by _block_inverse, and counts.

    One object serves one continuation, its stages and their cold-start eps
    chains, so concurrent solves never share one.
    """

    __slots__ = ("inv", "jacobians", "krylov")

    def __init__(self):
        self.inv = None
        self.jacobians = 0  # preconditioners (_PenaltyProblem.preconditioner) assembled and inverted
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
        rr = res @ res
        if not np.isfinite(rr):
            return None, k
        if rr <= eta**2:
            x *= nb
            return x, k
        z = M @ res
        rz, rz_old = res @ z, rz
        d *= rz / rz_old
        d += z
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


def _run_newton(
    prob: _PenaltyProblem, u0: np.ndarray, cfg: SolverConfig, lagged: _LaggedInverse, lam0: np.ndarray | None = None
):
    """Primal-dual semismooth Newton with a line search; returns (u, stop,
    iterations, |r|, energies).

    The unknowns are u on the Omega nodes and the multiplier lam per box
    node, from lam0 or else k_eps(|D^s u0| - g), and the equations are

        R1 = weak_residual(u, p, lam + eps |p|^(q-2)) = 0,  p = D^s u,
        R2 = multiplier_equation(|p|, lam) = 0.

    d lam is eliminated, its block being diagonal: the reduced system
    J du = -weak_residual(u, p, lam_t + eps |p|^(q-2)) has
    J = jacobian(p, lam, gain), and d lam = gain (p . D^s du)/|p| +
    lam_t - lam.  It is solved by PCG (GMRES when the form is not symmetric)
    preconditioned by lagged.inv, to the Eisenstat-Walker tolerance
    min(1e-3, max(0.9 (M_k / M_{k-1})^2, 1e-10)) |rhs|, tight because the
    recovered d lam amplifies the error in du by gain.  Without an inverse,
    or when the Krylov solve fails, the damped preconditioner(p, lam, gain)
    is assembled and inverted at the current point by 2x2 blocks
    (_block_inverse: GEMMs, and LAPACK only on leaves of at most
    _BLOCK_LEAF rows), and the step is its inverse applied to the
    right-hand side; a singular or non-finite inverse raises the damping
    instead.  The step is exact where P = J (A not one definite tensor, or
    an empty active set at u = 0), else off by the O(eps) couplings P
    leaves out.  The line search is one Armijo test on the merit
    M = (|R1|^2 / scale^2 + h^d |R2|^2)^(1/2), with lam projected onto
    [0, k_sat].  When it fails and lam is off
    k_eps(|D^s u| - g), lam restarts there; otherwise the damping rises.

    The stop test is the primal one, |residual(u)| <= newton_tol scale, with
    lam = k_eps(|D^s u| - g).  stop is converged, stagnated, damping or
    budget.  Stagnated means 15 accepted steps in a row, taken once M has
    fallen to _FLOOR times its start, cut M no more than 1% below its best:
    the rounding floor of the stiff penalty.  Far above that floor a slow start
    (a cold solve under a source many times g) still counts as progress.
    energies are the discrete energies of the accepted iterates of a
    symmetric form.
    """
    u = u0.copy()
    scale = 1.0 + float(np.linalg.norm(prob.rhs))
    root_hd = float(np.sqrt(prob.hd))
    k_sat = prob.fn.k_sat

    def merit(u, p, mag, lam):
        r1 = prob.weak_residual(u, p, lam + prob.regularization(mag))
        return float(np.hypot(_norm(r1) / scale, root_hd * _norm(prob.multiplier_equation(mag, lam)[0])))

    hist = []
    damping = _DAMPING
    p = prob.grad(u)
    mag = _magnitude(p)
    lam = prob.fn.value(mag - prob.g_flat) if lam0 is None else np.clip(lam0, 0.0, k_sat)
    rnorm = _norm(prob.residual(u, p))
    M, M_prev = merit(u, p, mag, lam), None
    krylov = _pcg if prob.symmetric else _gmres
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
        step = None
        if lagged.inv is not None:
            apply, diag = prob.linearization(p, lam, gain)
            damp = damping * (1.0 + np.abs(diag))
            eta = 1e-3 if M_prev is None else min(1e-3, max(0.9 * (M / M_prev) ** 2, 1e-10))
            step, k = krylov(lambda v: apply(v) + damp * v, b, lagged.inv, eta, _KRYLOV_BUDGET)
            lagged.krylov += k
        if step is None:
            lagged.inv = None  # free the old inverse before assembling P
            P = prob.preconditioner(p, lam, gain)
            P[np.diag_indices_from(P)] += damping * (1.0 + np.abs(P.diagonal()))
            lagged.jacobians += 1
            try:
                lagged.inv = _block_inverse(P)
            except np.linalg.LinAlgError:
                damping = max(damping * 100, 1e-8)
                continue
            finally:
                del P
            step = lagged.inv @ b
        dlam = gain * np.sum(p / np.maximum(mag, 1e-150) * prob.grad(step), axis=0) + lam_t - lam
        t = 1.0
        accepted = False
        while t >= _MIN_STEP:
            cand = u + t * step
            p_new = prob.grad(cand)
            mag_new = _magnitude(p_new)
            lam_new = np.clip(lam + t * dlam, 0.0, k_sat)
            M_new = merit(cand, p_new, mag_new, lam_new)
            # a non-finite merit fails the test
            if M_new <= (1 - 1e-4 * t) * M:
                u, p, mag, lam, M_prev, M = cand, p_new, mag_new, lam_new, M, M_new
                accepted = True
                break
            t *= 0.5
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
            continue
        rnorm = _norm(prob.residual(u, p))
        damping = max(_DAMPING, damping / 10)
        if prob.symmetric:
            hist.append(prob.energy(u, p))
        if M < 0.99 * best:
            best, since_best = M, 0
        elif M < floor:
            since_best += 1
    if rnorm <= tol:
        stop = "converged"
    return u, stop, it, rnorm, tuple(hist)


def _feasible_start(prob: _PenaltyProblem) -> tuple[np.ndarray, np.ndarray]:
    """(u0, lam0): u0 = t* w inside the constraint set, where the penalty
    vanishes, and the multiplier lam0 = 1/t* at every box node.

    w solves the s-Laplacian system h^d G^T G w = rhs on the Omega nodes, and
    t* = min(1, min_x g / |D^s w|).  The s-Laplacian is regular where the
    operator degenerates, so D^s u0 is nonzero almost everywhere and so is
    the eps |D^s u|^(q-2) term of the Jacobian; at u = 0 that term vanishes.
    The flux lam0 D^s u0 = D^s w balances the source, so where A = 0 the
    weak residual at (u0, lam0) is the q-power term alone.

    Primal-dual Newton needs both halves.  On the 1D degenerate sweep of 80
    cases, it takes 1898 Newton steps from here; from lam0 = k_eps(|D^s u0|
    - g) = 0 it takes 2602; from u = 0 it fails 1 case (n = 512, a = 0 for
    x > 0, s = 1, f = 1 runs out of budget at eps = 3e-3) and takes 3041.
    """
    T = prob.fft.gram(np.eye(prob.d))
    T *= prob.hd
    w = np.linalg.solve(T, prob.rhs)
    over = max(1.0, float(np.max(_magnitude(prob.grad(w)) / prob.g_flat)))
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
    operator has a degenerate node (A = 0 and c = 0 there), at the feasible
    s-Laplacian start of _feasible_start and its multiplier.  A
    cold start at small eps first walks a short internal geometric eps chain
    down from 0.1, since the exponential wall defeats plain Newton from
    there.  `lagged` carries the preconditioner from the solve that gave
    warm_start (continuation_solve passes it); without it the first Newton
    step assembles one.

    Returns the last accepted iterate, with converged=False if Newton stops
    before the tolerance; its lam is k_eps(|D^s u| - g) at that u, not
    Newton's multiplier iterate.  notes holds "stop=<reason>" (converged,
    stagnated, damping or budget), "jacobians=<n>", the preconditioners
    assembled and inverted (the exact J where A is not one positive
    definite tensor), and the Krylov iterations this call took, its
    cold-start chain included.
    """
    grid = op.grid
    q = cfg.q if cfg.q is not None else default_q(grid.dim, s)
    lagged = _LaggedInverse() if lagged is None else lagged
    jac0, kry0 = lagged.jacobians, lagged.krylov
    if warm_start is None and cfg.eps < 0.1:
        e = 0.1
        while e > cfg.eps * 1.0001:
            chain_cfg = replace(cfg, eps=e, eps_schedule=())
            warm_start = solve_fixed_eps(op, src, thr, s, chain_cfg, warm_start, lagged=lagged)
            e = max(cfg.eps, 0.25 * e)
    prob = _PenaltyProblem(op, src, thr, s, cfg.eps, q)
    mask = grid.masks().inside
    lam0 = None
    if warm_start is not None:
        u0 = warm_start.u.values[mask]
        lam0 = warm_start.lam.values.ravel()
    elif op.has_degenerate_node():
        u0, lam0 = _feasible_start(prob)
    else:
        u0 = np.zeros(prob.m)
    u, stop, iters, rnorm, hist = _run_newton(prob, u0, cfg, lagged, lam0)

    p = prob.grad(u)
    lam, _ = prob.flux_coeff(_magnitude(p))
    return _solution(
        grid, prob.fft.nodes, u, p, lam,
        eps=cfg.eps,
        q=q,
        s=s,
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
        out.append((eps, sol, kkt_report(sol, op, src, thr)))
        warm = sol
    return out


def kkt_battery(grid: GridSpec) -> list[ScalarField]:
    """Fixed battery of test fields: 32 random bumps plus low-frequency modes."""
    from .grid import bump

    fields = random_bumps(grid, 32, seed=2024)
    window = bump(grid)
    pts = grid.coords()
    L = grid.box_side
    for j in range(grid.dim):
        for k0 in (1, 2):
            fields.append(ScalarField(grid, window.values * np.cos(2 * np.pi * k0 * pts[j] / L)))
            fields.append(ScalarField(grid, window.values * pts[j] ** k0))
    return fields


def kkt_report(sol: Solution, op: OperatorData, src: SourceData, thr: Threshold) -> KKTReport:
    """Constraint violation, complementarity and residual diagnostics.

    The operator is D^s of order sol.s, the order sol was solved at.  D^s u
    is G u on the Omega nodes, so sol.u must vanish off Omega, and a
    non-finite sol.eps or sol.q raises ValueError naming it.  The
    residuals of the limit system (flux coefficient lam) and of the penalized
    equation (lam + eps |D^s u|^(q-2)) are the nodal weak residuals r of
    _PenaltyProblem.  Every kkt_battery field v vanishes off the Omega nodes,
    so D^s v = G v|_Omega and L(u, v) + <coeff D^s u, D^s v> - F(v) equals
    r . v|_Omega exactly: with the battery as the rows of V (restricted to
    Omega), V r tests all fields at once, and each is scaled by
    ||D^s v||_2 = sqrt(h^d) |G v|_Omega|.  G is applied by FFT throughout, and
    V and the norms are built once per (grid, s), on the shared operator.
    """
    grid = op.grid
    mask = grid.masks().inside
    if np.any(sol.u.values[~mask]):
        raise ValueError("sol.u must vanish outside Omega")
    # the fields are finite by construction (ScalarField); the scalars are not
    for name, value in (("sol.eps", sol.eps), ("sol.q", sol.q)):
        if not isfinite(value):
            raise ValueError(f"{name} must be finite")
    prob = _PenaltyProblem(op, src, thr, sol.s, sol.eps, sol.q)
    hd = prob.hd
    u = sol.u.values[mask]
    p = prob.grad(u)
    mag = _magnitude(p)
    slack = mag - prob.g_flat
    lam = sol.lam.values.ravel()
    violation = float(np.max(np.maximum(slack, 0.0)))
    comp = hd * float(np.sum(lam * slack))
    v_measure = hd * float(np.count_nonzero(slack > np.sqrt(sol.eps)))
    k_l1 = hd * float(np.sum(np.abs(lam)))
    psi_l1 = hd * float(np.sum(_magnitude(sol.psi.values)))

    V, norm_v = prob.fft.battery
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
