"""Riesz kernel constants, fractional gradient/divergence, and identity checks.

Two independent discretizations of the fractional gradient of order s:

* a spectral path: Fourier multiplier m_j(k) = (2*pi*i*k_j) |2*pi*k|^(s-1)
  on the periodic box, which for s=1 reduces to the classical spectral
  gradient, and whose divergence is exactly skew-adjoint to it;
* a direct path: quadrature of the vector-valued singular integral
  mu_s * int (u(x)-u(y)) (x-y) / |x-y|^(d+s+1) dy, one lattice sum for
  d = 1 and 2, with the near-singular first-order flux compensated in
  closed form.

The direct path exists in two flavors: `periodic=False` treats u as a
compactly supported function on R^d (box-exterior contribution added
analytically), which is the object the far-field and tail estimates bound;
`periodic=True` sums the kernel over lattice images, once, into a table over
the node offsets wrapped into (-L/2, L/2], so that both paths discretize the
same torus operator and can be compared tightly.
"""

from __future__ import annotations

from functools import lru_cache
from math import gamma as gamma_fn
from math import pi

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, lp_norm


def sphere_area(d: int) -> float:
    """Surface area sigma_{d-1} of the unit sphere in R^d (2 for d=1)."""
    return 2.0 * pi ** (d / 2) / gamma_fn(d / 2)


def gamma_coeff(d: int, alpha: float) -> float:
    """Riesz kernel normalization gamma_{d,alpha} for alpha in (0, 1)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return gamma_fn((d - alpha) / 2) / (pi ** (d / 2) * 2**alpha * gamma_fn(alpha / 2))


def mu_coeff(d: int, s: float) -> float:
    """Singular-integral constant mu_s = (d+s-1) gamma_{d,1-s}; 0 at s=1."""
    if not 0 < s <= 1:
        raise ValueError("s must be in (0, 1]")
    if s == 1.0:
        return 0.0
    return (d + s - 1) * gamma_coeff(d, 1 - s)


# -- kernel norms (closed forms of the L^1 ball / L^{p'} tail norms) ---------


def kernel_norm_ball(d: int, alpha: float, R: float) -> float:
    """||I_alpha||_{L^1(B(0,R))} = sigma_{d-1} gamma_{d,alpha} R^alpha / alpha."""
    if R <= 0:
        raise ValueError("R must be positive")
    return sphere_area(d) * gamma_coeff(d, alpha) / alpha * R**alpha


def kernel_norm_tail(d: int, alpha: float, p: float, R: float) -> float:
    """||I_alpha||_{L^{p'}(R^d \\ B(0,R))} for alpha*p < d."""
    if alpha * p >= d:
        raise ValueError("need alpha * p < d")
    if R <= 0:
        raise ValueError("R must be positive")
    pprime = p / (p - 1)
    g = gamma_coeff(d, alpha)
    return g * (sphere_area(d) * (p - 1) / (d - alpha * p)) ** (1 / pprime) * R ** ((alpha * p - d) / p)


# -- spectral path ------------------------------------------------------------


def _freq_mesh(grid: GridSpec) -> np.ndarray:
    """Angular wavenumbers 2*pi*k per axis, shape (d,) + grid.shape."""
    k1 = 2 * pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    return np.stack(np.meshgrid(*[k1] * grid.dim, indexing="ij"))


def riesz_symbol(grid: GridSpec, s: float) -> np.ndarray:
    """Per-axis multiplier of D^s: i*k_j*|k|^(s-1) (angular k), 0 at k=0.

    The j-th component is also zeroed where axis j sits at the Nyquist
    index: that mode is self-conjugate, and an odd (purely imaginary)
    symbol must vanish there for real fields to map to real fields.
    Memoised per (grid, s); the returned array is shared, hence read-only.
    """
    return _symbol(grid, float(s))


@lru_cache(maxsize=32)
def _symbol(grid: GridSpec, sv: float) -> np.ndarray:
    n = grid.points_per_axis
    k = _freq_mesh(grid)
    kabs = np.sqrt(np.sum(k**2, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(kabs > 0, kabs ** (sv - 1.0), 0.0)
    m = 1j * k * scale[None]
    idx = np.arange(n)
    for j in range(grid.dim):
        nyq = idx == n // 2
        shape = [1] * grid.dim
        shape[j] = n
        m[j] = np.where(nyq.reshape(shape), 0.0, m[j])
    m.flags.writeable = False
    return m


def riesz_convolve(f: ScalarField, alpha: float) -> ScalarField:
    """Riesz potential I_alpha * f via the multiplier |k|^(-alpha), mean mode 0."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    grid = f.grid
    k = _freq_mesh(grid)
    kabs = np.sqrt(np.sum(k**2, axis=0))
    with np.errstate(divide="ignore"):
        mult = np.where(kabs > 0, kabs ** (-alpha), 0.0)
    out = np.fft.ifftn(mult * np.fft.fftn(f.values)).real
    return ScalarField(grid, out)


def frac_gradient_spectral(u: ScalarField, s: float) -> VectorField:
    """Fractional gradient D^s u on the torus; classical gradient at s=1."""
    grid = u.grid
    m = riesz_symbol(grid, s)
    uhat = np.fft.fftn(u.values)
    comps = [np.fft.ifftn(m[j] * uhat).real for j in range(grid.dim)]
    return VectorField(grid, np.stack(comps))


def frac_divergence_spectral(xi: VectorField, s: float) -> ScalarField:
    """Fractional divergence D^s . xi, exactly skew-adjoint to the gradient."""
    grid = xi.grid
    m = riesz_symbol(grid, s)
    acc = np.zeros(grid.shape, dtype=complex)
    for j in range(grid.dim):
        acc += m[j] * np.fft.fftn(xi.values[j])
    return ScalarField(grid, np.fft.ifftn(acc).real)


def adjointness_residual(u: ScalarField, xi: VectorField, s: float) -> float:
    """Relative integration-by-parts residual of the pairing identity,
    |sum u (D^s.xi) + sum D^s u . xi| h^d / (||u||_2 ||xi||_2): rounding
    alone, as frac_divergence_spectral is the exact negative adjoint of
    frac_gradient_spectral.
    """
    grid = u.grid
    hd = grid.cell_volume
    div = frac_divergence_spectral(xi, s)
    grad = frac_gradient_spectral(u, s)
    lhs = hd * float(np.sum(u.values * div.values))
    rhs = hd * float(np.sum(grad.values * xi.values))
    nu = np.sqrt(hd * np.sum(u.values**2))
    nx = np.sqrt(hd * np.sum(xi.values**2))
    denom = nu * nx
    return abs(lhs + rhs) / denom if denom > 0 else 0.0


# -- direct (singular integral) path ------------------------------------------


def _fd_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences (periodic roll); local, FFT-free."""
    comps = []
    for a in range(values.ndim):
        d = (
            np.roll(values, 2, axis=a)
            - 8 * np.roll(values, 1, axis=a)
            + 8 * np.roll(values, -1, axis=a)
            - np.roll(values, -2, axis=a)
        ) / (12 * h)
        comps.append(d)
    return np.stack(comps)


def _cutoff_moment(d: int, s: float, rho: float) -> float:
    """Diagonal of int_{C_rho} z (x) z / |z|^(d+s+1) dz over the cutoff cell.

    C_rho is the interval [-rho, rho] in 1D and the square of half-side rho
    in 2D (aligned with lattice cells).  Off-diagonal entries vanish by
    symmetry.
    """
    if d == 1:
        return 2.0 * rho ** (1 - s) / (1 - s)
    # 2D square, polar angles, Gauss-Legendre on [0, pi/4]
    nodes, weights = np.polynomial.legendre.leggauss(48)
    theta = (nodes + 1) * (pi / 8)
    w = weights * (pi / 8)
    integral = 8.0 * rho ** (1 - s) / (1 - s) * float(np.sum(w * np.cos(theta) ** (s - 1)))
    return integral / 2.0


def _box_exterior_term(grid: GridSpec, s: float, pts: np.ndarray) -> np.ndarray:
    """int_{R^d \\ box} (x-y)/|x-y|^(d+s+1) dy for x at pts, shape (d, N).

    Uses z/|z|^(d+s+1) = grad_z phi(|z|) with phi(r) = -r^(1-d-s)/(d+s-1),
    so the exterior volume integral becomes a box-boundary flux integral.
    """
    d, L = grid.dim, grid.box_side
    half = L / 2
    q = d + s - 1

    def phi(r):
        return -(r ** (-q)) / q

    if d == 1:
        x = pts[0]
        return ((half + x) ** (-s) - (half - x) ** (-s))[None, :] / s
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = nodes * half
    w = weights * half
    out = np.zeros_like(pts)
    for axis in range(2):
        other = 1 - axis
        for sign in (+1.0, -1.0):
            # edge y_axis = sign*half, y_other = t; outward normal sign*e_axis
            da = pts[axis][:, None] - sign * half
            db = pts[other][:, None] - t[None, :]
            r = np.sqrt(da**2 + db**2)
            out[axis] += sign * np.sum(phi(r) * w[None, :], axis=1)
    return out


# The direct path compensates the near field analytically within _CUTOFF of
# each node; its periodic flavor sums the kernel over this many lattice images
# per axis (2D sums (2 images + 1)^2 copies of a box-sized table, so fewer)
_CUTOFF = 0.5
_IMAGES_1D = 64
_IMAGES_2D = 8
_CHUNK = 2_000_000  # entries per block of the (node, offset) arrays


def _kernel(z: np.ndarray, s: float, h: float) -> np.ndarray:
    """z / |z|^(d+s+1) for offsets z of shape (d, ...); 0 within h/4 of 0."""
    r2 = np.sum(z**2, axis=0)
    with np.errstate(divide="ignore"):
        w = r2 ** (-(z.shape[0] + s + 1) / 2)
    return z * np.where(r2 < (h / 4) ** 2, 0.0, w)


def _direct(u: ScalarField, s: float, eval_idx: np.ndarray, periodic: bool) -> np.ndarray:
    """D^s u at the flat node indices eval_idx, shape (d, eval_idx.size)."""
    grid = u.grid
    d, n, h, L = grid.dim, grid.points_per_axis, grid.spacing, grid.box_side
    hd = grid.cell_volume
    pts = grid.coords().reshape(d, -1)
    uv = u.values.ravel()
    du = _fd_gradient(u.values, h).reshape(d, -1)

    m_cells = max(int(np.floor(_CUTOFF / h - 0.5)), 1)
    rho = (m_cells + 0.5) * h
    mom_exact = _cutoff_moment(d, s, rho)

    def near_moment(z, K):
        """h^d sum over the offsets within the cutoff cell of z (x) K."""
        near = np.max(np.abs(z), axis=0) <= rho + h / 4
        return hd * np.einsum("i...n,j...n->ij...", z, np.where(near, K, 0.0))

    if periodic:
        # kernel table over the node offsets wrapped into (-L/2, L/2], with
        # the lattice images summed in once; translation invariance makes
        # the near moment one (d, d) matrix
        off = pts + L / 2
        off = off - L * np.round(off / L)
        images = _IMAGES_1D if d == 1 else _IMAGES_2D
        shifts = np.meshgrid(*[L * np.arange(-images, images + 1)] * d, indexing="ij")
        shifts = np.stack(shifts).reshape(d, 1, -1)
        step = max(1, _CHUNK // shifts.shape[-1])
        blocks = [
            _kernel(off[:, lo : lo + step, None] + shifts, s, h).sum(axis=-1)
            for lo in range(0, off.shape[1], step)
        ]
        table = np.concatenate(blocks, axis=1)
        M = near_moment(off, _kernel(off, s, h))[..., None]
        node = np.unravel_index(np.arange(uv.size), grid.shape)

    out = np.empty((d, eval_idx.size))
    chunk = max(1, _CHUNK // uv.size)
    for lo in range(0, eval_idx.size, chunk):
        sel = eval_idx[lo : lo + chunk]
        if periodic:
            o = np.ravel_multi_index(tuple((a[sel, None] - a[None, :]) % n for a in node), grid.shape)
            K = table[:, o]
        else:
            z = pts[:, sel, None] - pts[:, None, :]
            K = _kernel(z, s, h)
            M = near_moment(z, K)
        diff = uv[sel, None] - uv[None, :]
        acc = hd * np.sum(diff * K, axis=-1)
        # near-field compensation of the first-order flux: exact moment of
        # the cutoff cell minus its lattice sum
        g = du[:, sel]
        acc += g * mom_exact - np.sum(M * g, axis=1)
        if not periodic:
            # exterior term carries a factor u(x): skip the support-free
            # nodes (the flux integrand is singular at the box edge itself)
            live = uv[sel] != 0.0
            acc[:, live] += uv[sel[live]] * _box_exterior_term(grid, s, pts[:, sel[live]])
        out[:, lo : lo + chunk] = acc
    return mu_coeff(d, s) * out


def frac_gradient_direct(
    u: ScalarField,
    s: float,
    eval_mask: np.ndarray | None = None,
    periodic: bool = False,
) -> VectorField:
    """Fractional gradient by quadrature of the singular integral (0 < s < 1).

    `eval_mask` restricts the O(n^{2d}) evaluation to the requested nodes
    (zeros elsewhere).  With `periodic=True` the kernel is summed over
    lattice images (64 per axis in 1D, 8 in 2D) so the result approximates
    the same torus operator as the spectral path; otherwise u is treated as a
    compactly supported function on R^d and the box-exterior contribution
    enters through an analytic boundary term.
    """
    if not 0 < s < 1:
        raise ValueError("the singular-integral form needs 0 < s < 1")
    grid = u.grid
    out = np.zeros((grid.dim, u.values.size))
    eval_idx = np.arange(u.values.size) if eval_mask is None else np.flatnonzero(eval_mask.ravel())
    if eval_idx.size:
        out[:, eval_idx] = _direct(u, float(s), eval_idx, periodic)
    return VectorField(grid, out.reshape((grid.dim,) + grid.shape))


# -- identity-suite operations -------------------------------------------------


def localization_error(w: ScalarField, s_list) -> np.ndarray:
    """Sup norm of D^s w - D w over the box for each s (spectral path)."""
    dw = frac_gradient_spectral(w, 1.0).values
    errs = []
    for s in s_list:
        ds = frac_gradient_spectral(w, s).values
        errs.append(float(np.max(np.abs(ds - dw))))
    return np.asarray(errs)


def tail_decay_check(u: ScalarField, s: float, p: float, R_list) -> dict:
    """Tail integrals of |D^s u|^p outside Omega_R against the decay estimate.

    Returns the measured integrals over box \\ Omega_R and their ratios to
    mu_s^p ||u||_1^p / R^((p-1)d + ps); the estimate asserts the ratios are
    bounded by one constant for all R >= 1.
    """
    grid = u.grid
    d = grid.dim
    dist = grid.omega_distance()
    hd = grid.cell_volume
    l1 = hd * float(np.sum(np.abs(u.values)))
    out = {"R": [], "tail": [], "ratio": []}
    for R in R_list:
        region = dist >= R
        if not region.any():
            raise ValueError(f"R={R} exceeds the box")
        ds = frac_gradient_direct(u, s, eval_mask=region, periodic=False)
        tail = hd * float(np.sum(ds.magnitude()[region] ** p))
        envelope = mu_coeff(d, s) ** p * l1**p / R ** ((p - 1) * d + p * s)
        out["R"].append(float(R))
        out["tail"].append(tail)
        out["ratio"].append(tail / envelope if envelope > 0 else 0.0)
    return out


def poincare_check(u: ScalarField, s: float, p: float) -> float:
    """Ratio ||u||_{L^p(Omega)} / ||D^s u||_{L^p(box)}; 0/0 resolves to 0."""
    grid = u.grid
    mask = grid.masks().inside
    num = lp_norm(u, p, region=mask)
    den = lp_norm(frac_gradient_spectral(u, s), p)
    if den == 0.0:
        if num == 0.0:
            return 0.0
        raise RuntimeError("D^s u vanished for a nonzero field: discretization fault")
    return num / den
