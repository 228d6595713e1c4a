"""Riesz kernel constants, fractional gradient/divergence, and identity checks.

Two independent discretizations of the fractional gradient of order s:

* a spectral path: Fourier multiplier m_j(k) = (2*pi*i*k_j) |2*pi*k|^(s-1)
  on the periodic box, which for s=1 reduces to the classical spectral
  gradient, and whose divergence is exactly skew-adjoint to it;
* a direct path: quadrature of the vector-valued singular integral
  mu_s * int (u(x)-u(y)) (x-y) / |x-y|^(d+s+1) dy, with the near-singular
  first-order flux compensated in closed form.

The direct path exists in two flavors: `periodic=False` treats u as a
compactly supported function on R^d (box-exterior contribution added
analytically), which is the object the far-field and tail estimates bound;
`periodic=True` sums the kernel over lattice images so that both paths
discretize the same torus operator and can be compared tightly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma as gamma_fn
from math import pi

import numpy as np

from .grid import GridSpec, ScalarField, VectorField

EXP_CAP = 500.0  # exp argument clamp; e^500 is finite in float64


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


@dataclass(frozen=True)
class FracOrder:
    """Fractional exponent s in (0, 1] with a fixed lower bound sigma < s."""

    s: float
    sigma: float = 0.25

    def __post_init__(self):
        if not 0 < self.sigma < self.s <= 1:
            raise ValueError("need 0 < sigma < s <= 1")


def _as_s(s: FracOrder | float) -> float:
    return s.s if isinstance(s, FracOrder) else float(s)


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
    if grid.dim == 1:
        return k1[None, :]
    KX, KY = np.meshgrid(k1, k1, indexing="ij")
    return np.stack([KX, KY])


def riesz_symbol(grid: GridSpec, s: FracOrder | float) -> np.ndarray:
    """Per-axis multiplier of D^s: i*k_j*|k|^(s-1) (angular k), 0 at k=0.

    The j-th component is also zeroed where axis j sits at the Nyquist
    index: that mode is self-conjugate, and an odd (purely imaginary)
    symbol must vanish there for real fields to map to real fields.
    Memoised per (grid, s); the returned array is shared, hence read-only.
    """
    return _symbol(grid, _as_s(s))


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


def frac_gradient_spectral(u: ScalarField, s: FracOrder | float) -> VectorField:
    """Fractional gradient D^s u on the torus; classical gradient at s=1."""
    grid = u.grid
    m = riesz_symbol(grid, s)
    uhat = np.fft.fftn(u.values)
    comps = [np.fft.ifftn(m[j] * uhat).real for j in range(grid.dim)]
    return VectorField(grid, np.stack(comps))


def frac_divergence_spectral(xi: VectorField, s: FracOrder | float) -> ScalarField:
    """Fractional divergence D^s . xi, exactly skew-adjoint to the gradient."""
    grid = xi.grid
    m = riesz_symbol(grid, s)
    acc = np.zeros(grid.shape, dtype=complex)
    for j in range(grid.dim):
        acc += m[j] * np.fft.fftn(xi.values[j])
    return ScalarField(grid, np.fft.ifftn(acc).real)


def adjointness_residual(
    u: ScalarField, xi: VectorField, s: FracOrder | float, div_s_offset: float = 0.0
) -> float:
    """Relative integration-by-parts residual of the pairing identity.

    |sum u (D^s.xi) + sum D^s u . xi| h^d / (||u||_2 ||xi||_2).  The
    `div_s_offset` shifts s on the divergence side only; it exists as a
    fault-injection hook for the verification suite.
    """
    grid = u.grid
    hd = grid.cell_volume
    div = frac_divergence_spectral(xi, _as_s(s) + div_s_offset)
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


def _direct_1d(u, s, eval_idx, periodic):
    grid = u.grid
    n, h, L = grid.points_per_axis, grid.spacing, grid.box_side
    mu = mu_coeff(1, s)
    x = grid.axis()
    uv = u.values
    du = _fd_gradient(uv, h)[0]

    m_cells = max(int(np.floor(_CUTOFF / h - 0.5)), 1)
    rho = (m_cells + 0.5) * h

    Z = x[eval_idx][:, None] - x[None, :]
    if periodic:
        Zw = Z - L * np.round(Z / L)
    else:
        Zw = Z
    self_mask = np.abs(Zw) < h / 2

    def kern(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.sign(z) * np.abs(z) ** (-1 - s)
        return np.where(np.abs(z) < h / 4, 0.0, k)

    if periodic:
        K = np.zeros_like(Z)
        for mm in range(-_IMAGES_1D, _IMAGES_1D + 1):
            K += kern(Zw + mm * L)
    else:
        K = kern(Z)
    K[self_mask] = 0.0

    diff = uv[eval_idx][:, None] - uv[None, :]
    plain = h * np.sum(diff * K, axis=1)

    K0 = kern(Zw)
    K0[self_mask] = 0.0
    near = (np.abs(Zw) <= rho + h / 4) & ~self_mask
    mom_mid = h * np.sum(np.where(near, Zw * K0, 0.0), axis=1)
    comp = du[eval_idx] * (_cutoff_moment(1, s, rho) - mom_mid)

    vals = plain + comp
    if not periodic:
        # exterior term carries a factor u(x): skip the support-free nodes
        # (the flux integrand is singular at the box edge itself)
        carrier = np.flatnonzero(uv[eval_idx] != 0.0)
        if carrier.size:
            tail = _box_exterior_term(grid, s, x[eval_idx[carrier]][None, :])[0]
            vals[carrier] += uv[eval_idx[carrier]] * tail
    return mu * vals


def _direct_2d(u, s, eval_idx, periodic):
    grid = u.grid
    n, h, L = grid.points_per_axis, grid.spacing, grid.box_side
    mu = mu_coeff(2, s)
    pts = grid.coords().reshape(2, -1)
    uv = u.values.ravel()
    du = _fd_gradient(u.values, h).reshape(2, -1)

    m_cells = max(int(np.floor(_CUTOFF / h - 0.5)), 1)
    rho = (m_cells + 0.5) * h
    mom_exact = _cutoff_moment(2, s, rho)

    if periodic:
        # kernel table over wrapped index offsets, images summed once
        ax = grid.axis() + L / 2  # offsets 0..L-h
        Z0, Z1 = np.meshgrid(ax, ax, indexing="ij")
        Z0 = Z0 - L * np.round(Z0 / L)
        Z1 = Z1 - L * np.round(Z1 / L)
        T0 = np.zeros_like(Z0)
        T1 = np.zeros_like(Z1)
        for m0 in range(-_IMAGES_2D, _IMAGES_2D + 1):
            for m1 in range(-_IMAGES_2D, _IMAGES_2D + 1):
                A, B = Z0 + m0 * L, Z1 + m1 * L
                r2 = A**2 + B**2
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = r2 ** (-(3 + s) / 2)
                w = np.where(r2 < (h / 4) ** 2, 0.0, w)
                T0 += A * w
                T1 += B * w

    idx_all = np.arange(n * n)
    out = np.zeros((2, eval_idx.size))
    exterior = np.zeros((2, eval_idx.size))
    if not periodic:
        carrier = np.flatnonzero(uv[eval_idx] != 0.0)
        if carrier.size:
            exterior[:, carrier] = _box_exterior_term(grid, s, pts[:, eval_idx[carrier]])

    chunk = max(1, int(2e6) // (n * n))
    for lo in range(0, eval_idx.size, chunk):
        sel = eval_idx[lo : lo + chunk]
        if periodic:
            i0, j0 = np.divmod(sel, n)
            i1, j1 = np.divmod(idx_all, n)
            o0 = (i0[:, None] - i1[None, :]) % n
            o1 = (j0[:, None] - j1[None, :]) % n
            K0c, K1c = T0[o0, o1], T1[o0, o1]
            Zw0 = Z0[o0, o1]
            Zw1 = Z1[o0, o1]
        else:
            Zw0 = pts[0, sel][:, None] - pts[0][None, :]
            Zw1 = pts[1, sel][:, None] - pts[1][None, :]
            r2 = Zw0**2 + Zw1**2
            with np.errstate(divide="ignore", invalid="ignore"):
                w = r2 ** (-(3 + s) / 2)
            w = np.where(r2 < (h / 4) ** 2, 0.0, w)
            K0c, K1c = Zw0 * w, Zw1 * w

        diff = uv[sel][:, None] - uv[None, :]
        acc0 = h * h * np.sum(diff * K0c, axis=1)
        acc1 = h * h * np.sum(diff * K1c, axis=1)

        # near-field compensation against the principal (m=0) kernel
        r2w = Zw0**2 + Zw1**2
        with np.errstate(divide="ignore", invalid="ignore"):
            w0 = r2w ** (-(3 + s) / 2)
        w0 = np.where(r2w < (h / 4) ** 2, 0.0, w0)
        near = (np.maximum(np.abs(Zw0), np.abs(Zw1)) <= rho + h / 4) & (r2w > (h / 4) ** 2)
        w0n = np.where(near, w0, 0.0)
        m00 = h * h * np.sum(Zw0 * Zw0 * w0n, axis=1)
        m01 = h * h * np.sum(Zw0 * Zw1 * w0n, axis=1)
        m11 = h * h * np.sum(Zw1 * Zw1 * w0n, axis=1)
        g0, g1 = du[0, sel], du[1, sel]
        acc0 += g0 * (mom_exact - m00) - g1 * m01
        acc1 += g1 * (mom_exact - m11) - g0 * m01

        if not periodic:
            acc0 += uv[sel] * exterior[0, lo : lo + chunk]
            acc1 += uv[sel] * exterior[1, lo : lo + chunk]
        out[0, lo : lo + chunk] = acc0
        out[1, lo : lo + chunk] = acc1
    return mu * out


def frac_gradient_direct(
    u: ScalarField,
    s: FracOrder | float,
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
    sv = _as_s(s)
    if not 0 < sv < 1:
        raise ValueError("the singular-integral form needs 0 < s < 1")
    grid = u.grid
    if eval_mask is None:
        eval_idx = np.arange(int(np.prod(grid.shape)))
    else:
        eval_idx = np.flatnonzero(eval_mask.ravel())
    out = np.zeros((grid.dim,) + (int(np.prod(grid.shape)),))
    if eval_idx.size:
        if grid.dim == 1:
            out[0, eval_idx] = _direct_1d(u, sv, eval_idx, periodic)
        else:
            out[:, eval_idx] = _direct_2d(u, sv, eval_idx, periodic)
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


def tail_decay_check(u: ScalarField, s: FracOrder | float, p: float, R_list) -> dict:
    """Tail integrals of |D^s u|^p outside Omega_R against the decay estimate.

    Returns the measured integrals over box \\ Omega_R and their ratios to
    mu_s^p ||u||_1^p / R^((p-1)d + ps); the estimate asserts the ratios are
    bounded by one constant for all R >= 1.
    """
    sv = _as_s(s)
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
        ds = frac_gradient_direct(u, sv, eval_mask=region, periodic=False)
        tail = hd * float(np.sum(ds.magnitude()[region] ** p))
        envelope = mu_coeff(d, sv) ** p * l1**p / R ** ((p - 1) * d + p * sv)
        out["R"].append(float(R))
        out["tail"].append(tail)
        out["ratio"].append(tail / envelope if envelope > 0 else 0.0)
    return out


def poincare_check(u: ScalarField, s: FracOrder | float, p: float) -> float:
    """Ratio ||u||_{L^p(Omega)} / ||D^s u||_{L^p(box)}; 0/0 resolves to 0."""
    from .grid import lp_norm

    grid = u.grid
    mask = grid.masks().inside
    num = lp_norm(u, p, region=mask)
    den = lp_norm(frac_gradient_spectral(u, s), p)
    if den == 0.0:
        if num == 0.0:
            return 0.0
        raise RuntimeError("D^s u vanished for a nonzero field: discretization fault")
    return num / den
