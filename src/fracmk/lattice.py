"""D^s of nodal values on the lattice, and the nodal weak form it enters.

Unknowns are the values of u at the Omega-interior nodes, so membership in
the zero-extension space is enforced strongly.  The spectral D^s is a
lattice convolution, so the fractional gradient G of the nodal basis has
shifts of one real kernel as columns.  One operator per (grid, s),
OmegaFFT, applies G v and G^T w by FFT and hands out blocks of those
columns; G itself is never stored.  The nodal weak residual is written
once, in WeakForm, and the penalty's Newton iteration, its Jacobian, both
oracles and the KKT report all use it.  Its linearization is assembled in
one place, WeakForm.form_matrix, which picks the route, for the Newton
Jacobian and the oracles' Q, symmetric only up to rounding
(dense.block_inverse symmetrizes for PCG), and applied without forming it
by WeakForm.form_action for the Krylov solves.
Where b and dvec both vanish, the weak form and the Toeplitz matrix skip
their terms, which would add exact zeros.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .dense import tril_inverse
from .forms import OperatorData, SourceData
from .grid import GridSpec, ScalarField, bump, random_bumps
from .riesz import riesz_symbol

# Values per block of columns G e_j (0.5 MB): the blocked assemblies hold a
# few arrays of this size, far under d * N * m on every grid past a few nodes.
_BLOCK_VALUES = 1 << 16


# numpy's n-d transforms spend as long checking their arguments as a 1D
# transform of a few thousand points takes; these run the sequence rfftn and
# irfftn run inside, on the last d axes, so the results are bit-identical
def rfft_box(x: np.ndarray, d: int) -> np.ndarray:
    """np.fft.rfftn of x over its last d axes."""
    out = np.fft.rfft(x, axis=-1)
    for axis in range(-2, -d - 1, -1):
        out = np.fft.fft(out, axis=axis)
    return out


def irfft_box(spectrum: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """np.fft.irfftn of spectrum over its last len(shape) axes, to that shape."""
    for axis in range(-len(shape), -1):
        spectrum = np.fft.ifft(spectrum, axis=axis)
    return np.fft.irfft(spectrum, shape[-1], axis=-1)


def magnitude(p: np.ndarray) -> np.ndarray:
    """|p| per node, for vector fields p of shape (d, ...)."""
    return np.sqrt(np.einsum("a...,a...->...", p, p))


def scatter(u: np.ndarray, idx: np.ndarray, N: int) -> np.ndarray:
    out = np.zeros(u.shape[:-1] + (N,))
    out[..., idx] = u
    return out


class OmegaFFT:
    """D^s of nodal values on the Omega nodes, and its adjoint, by FFT.

    D^s is a lattice convolution: G e_i, the gradient of the basis function
    of node i, is the real kernel kern_a = ifftn(m_a) rolled onto node i.
    column_blocks hands out those columns, each a window into a 2x-tiled
    copy of the kernel, so no FFT and no dense G.  G v is the circular
    convolution of kern_a with v scattered onto the box, and
    G^T w = sum_a kern_a correlated with w_a, gathered on the nodes: both
    are products with sigma_a = rfftn(kern_a).  For a constant d x d tensor
    C0, G^T C0 G is Toeplitz in the node offsets: gram reads it off the
    kernel's cross-correlations, one irfftn, through offset_rows, which
    reads a tiled copy as column_blocks does, so the s-Laplacian start and a
    Jacobian at u = 0 take no FFT per column; offset_rows of the kernel
    itself gives rows of G at any box nodes.  Immutable but for two
    read-only arrays built on first use: battery, the KKT report's test
    fields, and gram_factor_inverse, PDHG's metric.
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
        self.sigma = rfft_box(kern, d)
        self.sigma_conj = self.sigma.conj()
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

    def grad(self, v: np.ndarray) -> np.ndarray:
        """G v, shape (d, N), for nodal values v of shape (m,)."""
        return self.box_grad(scatter(v, self.nodes, self.N))

    def box_grad(self, v_box: np.ndarray) -> np.ndarray:
        """G v, shape (d, N), for v scattered onto the box, shape (N,)."""
        vhat = rfft_box(v_box.reshape(self.shape), self.d)
        return irfft_box(self.sigma * vhat, self.shape).reshape(self.d, -1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """G^T w on the nodes, shape (..., m), for box vector fields w of shape (..., d, N)."""
        what = rfft_box(w.reshape(w.shape[:-1] + self.shape), self.d)
        box = irfft_box(np.sum(self.sigma_conj * what, axis=-self.d - 1), self.shape)
        return box.reshape(box.shape[: -self.d] + (self.N,))[..., self.nodes]

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

    def gram(self, C0: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """sum_ab C0_ab G_a^T G_b on the nodes, (m, m), for a constant (d, d)
        C0, written over every entry of out if given, else a new array.

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
        R = irfft_box(spec, self.shape)
        T = np.empty((self.nodes.size,) * 2) if out is None else out
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

    @cached_property
    def gram_factor_inverse(self) -> np.ndarray:
        """Li = L^-1, (m, m), for the Cholesky factor L of the s-Laplacian
        Gram K^T K = gram(I) = L L^T on the Omega nodes: PDHG's metric, as
        Li gram(I) Li^T = I.  Exactly zero above the diagonal; read-only,
        built on first use."""
        Li = tril_inverse(np.linalg.cholesky(self.gram(np.eye(self.d))))
        Li.flags.writeable = False
        return Li


# The library asks for one (grid, s) at a time: a continuation, its stages and
# KKT reports use one; run_localize solves one s after another; run_dependence's
# PDHG solves share one, as do each verify-kernels triangle row's penalty, PDHG
# and QP solves; run_oracle uses s = 1 alone.
@lru_cache(maxsize=1)
def omega_fft(grid: GridSpec, s: float) -> OmegaFFT:
    return OmegaFFT(grid, s)


def kkt_battery(grid: GridSpec) -> list[ScalarField]:
    """Fixed battery of test fields: 32 random bumps plus low-frequency modes."""
    fields = random_bumps(grid, 32, seed=2024)
    window = bump(grid)
    pts = grid.coords()
    L = grid.box_side
    for j in range(grid.dim):
        for k0 in (1, 2):
            fields.append(ScalarField(grid, window.values * np.cos(2 * np.pi * k0 * pts[j] / L)))
            fields.append(ScalarField(grid, window.values * pts[j] ** k0))
    return fields


class WeakForm:
    """The nodal weak form L(u, v) + <coeff D^s u, D^s v> - F(v) over the
    Omega nodes, for the operator op, the source src and D^s of order s:
    its residual, and its linearization, as a dense matrix and as a product;
    the linearization takes a flux derivative without h^d."""

    def __init__(self, op: OperatorData, src: SourceData, s: float):
        grid = op.grid
        self.grid = grid
        self.hd = grid.cell_volume
        self.fft = omega_fft(grid, s)
        nodes = self.fft.nodes
        self.d, self.N, self.m = grid.dim, self.fft.N, nodes.size
        self.s = s
        # h^d (f_sharp + (D^s)^T f_vec) on the Omega nodes
        self.rhs = self.hd * (src.f_sharp.ravel()[nodes] + self.fft.adjoint(src.f_vec.reshape(self.d, -1)))
        self.A_flat = op.A.reshape(self.d, self.d, -1)
        self.b_at = op.b.reshape(self.d, -1)[:, nodes]  # (d, m)
        self.dvec_flat = op.dvec.reshape(self.d, -1)
        self.c_at = op.c.ravel()[nodes]
        # whether A = 0 and c = 0 at some Omega node, where the principal part
        # vanishes: only then does the penalty add its q-power term, a cold
        # start begin inside the constraint set, and an oracle's Q get a ridge
        zero_A = np.all(self.A_flat[..., nodes] == 0.0, axis=(0, 1))
        self.degenerate = bool(np.any(zero_A & (self.c_at == 0.0)))
        # the weak form's coefficients, h^d folded in
        self.hb_at = self.hd * self.b_at
        self.hdvec = self.hd * self.dvec_flat
        self.hc_at = self.hd * self.c_at
        # whether the form is symmetric exactly, as PCG and the oracles need
        self.symmetric = bool(np.array_equal(op.b, op.dvec) and np.array_equal(op.A, np.swapaxes(op.A, 0, 1)))
        # whether the b and dvec terms exist: where both vanish, the weak form
        # and _toeplitz skip them, as they would add exact zeros
        self.convection = bool(np.any(self.b_at) or np.any(self.dvec_flat))
        # A as one tensor A0 on the whole box whose symmetric part is positive
        # definite (op.a_star > 0), else None: then form_matrix takes its
        # Toeplitz route
        A0 = self.A_flat[..., 0].copy()
        self.A0 = A0 if op.a_star > 0 and np.all(self.A_flat == A0[..., None]) else None

    def grad(self, u: np.ndarray) -> np.ndarray:
        return self.fft.grad(u)

    def _weak_form(self, u: np.ndarray, p: np.ndarray, hflux: np.ndarray, u_box: np.ndarray | None = None):
        """h^d [G^T (flux + dvec u) + b . p + c u] on the Omega nodes, p = D^s u.

        hflux is h^d flux; u_box, if given, is u scattered onto the box.  u
        (..., m), p and hflux (..., d, N) may share leading batch axes.
        """
        if self.convection:
            u_box = scatter(u, self.fft.nodes, self.N) if u_box is None else u_box
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

    def form_matrix(self, C: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The linearized weak form h^d G^T C G plus the b, dvec and c terms
        as a dense (m, m) matrix, not symmetrized, for a flux derivative C of
        shape (d, d, N), left as it is: h^d is folded into a copy before any
        product.  Written over every entry of out if given, else a new array.

        Where A is one positive definite tensor A0 on the box, it is
        _toeplitz(h^d A0), read off the kernel's cross-correlations in one
        inverse FFT, plus add_active_rows over the box nodes S where C is not
        A0, with no FFT per column: a coercive penalty's C is A0 off its
        multiplier's active set, and an oracle's Q has no S.  Otherwise (A
        varying, or A = 0 in transport) column j is the weak form at e_j,
        D^s e_j a column of G read off the kernel, a block of columns at a
        time, so the matrix and form_action share one definition.
        """
        if self.A0 is not None:
            C = C - self.A0[..., None]
            S = np.flatnonzero(np.any(C != 0.0, axis=(0, 1)))
            return self.add_active_rows(self._toeplitz(self.hd * self.A0, out), C, S)
        C = self.hd * C
        J = np.empty((self.m, self.m)) if out is None else out
        for j, P in self.fft.column_blocks():
            E = np.zeros((P.shape[0], self.m))
            E[:, j] = np.eye(P.shape[0])
            J[:, j] = self._weak_form(E, P, np.einsum("abN,kbN->kaN", C, P)).T
        return J

    def form_action(self, C: np.ndarray):
        """The callable v -> M v alone, for M = form_matrix(C), without
        forming M: a product costs a few FFTs.  C is left as it is, as in
        form_matrix."""
        C = self.hd * C

        def apply(v: np.ndarray) -> np.ndarray:
            v_box = scatter(v, self.fft.nodes, self.N)
            pv = self.fft.box_grad(v_box)
            return self._weak_form(v, pv, np.einsum("abN,bN->aN", C, pv), v_box)

        return apply

    def add_active_rows(self, P: np.ndarray, C: np.ndarray, S: np.ndarray) -> np.ndarray:
        """P += h^d G_S^T C_S G_S, in place, for box nodes S and a (d, d, N) C,
        left as it is: the rows G_S are read off the kernel a block at a time.
        form_matrix adds the nodes where C leaves A0 so, and the QP oracle its
        multiplier's."""
        C = self.hd * C
        rows = max(1, _BLOCK_VALUES // self.m)
        for i, K in self.fft.offset_rows(self.fft.kern, S):
            # K[a] holds the rows S[i] of G_a, and Y[a] those of sum_b C_ab G_b
            Y = np.einsum("abk,bkj->akj", C[..., S[i]], K).reshape(-1, self.m)
            K = K.reshape(-1, self.m)
            for j in range(0, self.m, rows):
                P[j : j + rows] += K[:, j : j + rows].T @ Y
        return P

    def _toeplitz(self, C0: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h^d G^T C0 G plus the b, dvec and c terms of J, (m, m), for one
        (d, d) tensor C0 with h^d folded in; in out, as gram writes it.

        The Gram is Toeplitz in the node offsets, and OmegaFFT.gram reads it
        off the kernel's cross-correlations.  The b and dvec terms read kern_a
        at the same offsets: G_a[x_i, j] is kern_a(x_i - x_j), and G_a[x_j, i]
        its negative, as the kernel is odd.
        """
        J = self.fft.gram(C0, out)
        if self.convection:
            hdvec_at = self.hdvec[:, self.fft.nodes]
            for i, K in self.fft.offset_rows(self.fft.kern):
                for a in range(self.d):
                    J[i] += (self.hb_at[a, i, None] - hdvec_at[a]) * K[a]
        J[np.diag_indices(self.m)] += self.hc_at
        return J
