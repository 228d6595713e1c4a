"""Bilinear form of the (possibly degenerate) operator, data functional,
coercivity diagnostics and threshold management.

The operator pairs u, v supported in Omega through

    L(u, v) = int_box A D^s u . D^s v + int_Omega (dvec u) . D^s v
              + int_Omega (b . D^s u + c u) v,

and the data enter through F(v) = int_Omega f_sharp v + int_box f_vec . D^s v.
Terms with the coefficient supported in Omega integrate over the mask; terms
in D^s alone integrate over the whole box, since fractional gradients of
compactly supported fields do not vanish outside Omega.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, holder_seminorm, lp_norm, random_bumps
from .riesz import frac_gradient_spectral


@dataclass(frozen=True)
class OperatorData:
    """Coefficients of the bilinear form; A may degenerate or vanish.

    A has shape (d, d) + grid.shape; b, dvec, c live on the box but must
    vanish outside Omega.  a_star, the ellipticity floor with
    A xi . xi >= a_star |xi|^2, is read off A: the least eigenvalue of its
    symmetric part over the box, or 0 where that degenerates.
    """

    grid: GridSpec
    A: np.ndarray
    b: np.ndarray
    dvec: np.ndarray
    c: np.ndarray
    a_star: float = field(init=False)

    def __post_init__(self):
        d = self.grid.dim
        shp = self.grid.shape
        if self.A.shape != (d, d) + shp:
            raise ValueError("A must have shape (d, d) + grid shape")
        for name, arr, vec in (("b", self.b, True), ("dvec", self.dvec, True), ("c", self.c, False)):
            want = ((d,) + shp) if vec else shp
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}")
        if not all(np.isfinite(a).all() for a in (self.A, self.b, self.dvec, self.c)):
            raise ValueError("operator coefficients must be finite")
        mask = self.grid.masks().inside
        for name, arr in (("b", self.b), ("dvec", self.dvec)):
            if np.any(arr[:, ~mask] != 0.0):
                raise ValueError(f"{name} must vanish outside Omega")
        if np.any(self.c[~mask] != 0.0):
            raise ValueError("c must vanish outside Omega")
        # nonnegativity A(x) xi . xi >= 0 for all xi: the symmetric part of
        # A is positive semidefinite at every node
        An = np.moveaxis(self.A.reshape(d, d, -1), -1, 0)
        low = float(np.linalg.eigvalsh(0.5 * (An + np.swapaxes(An, 1, 2))).min())
        if low < -1e-12:
            raise ValueError("A is not nonnegative: its symmetric part has a negative eigenvalue")
        object.__setattr__(self, "a_star", max(low, 0.0))

    def apply_A(self, p: np.ndarray) -> np.ndarray:
        return np.einsum("ab...,b...->a...", self.A, p)


def isotropic_operator(
    grid: GridSpec,
    a: float | np.ndarray = 1.0,
    b: np.ndarray | None = None,
    dvec: np.ndarray | None = None,
    c: np.ndarray | None = None,
) -> OperatorData:
    """Operator with A = a(x) * Id and optional lower-order coefficients."""
    d, shp = grid.dim, grid.shape
    a_field = np.broadcast_to(np.asarray(a, dtype=float), shp)
    A = np.zeros((d, d) + shp)
    for j in range(d):
        A[j, j] = a_field
    zero_v = np.zeros((d,) + shp)
    return OperatorData(
        grid=grid,
        A=A,
        b=zero_v if b is None else np.asarray(b, dtype=float),
        dvec=zero_v if dvec is None else np.asarray(dvec, dtype=float),
        c=np.zeros(shp) if c is None else np.asarray(c, dtype=float),
    )


@dataclass(frozen=True)
class SourceData:
    """Right-hand-side data: scalar f_sharp on Omega, vector f_vec on the box."""

    grid: GridSpec
    f_sharp: np.ndarray
    f_vec: np.ndarray

    def __post_init__(self):
        if self.f_sharp.shape != self.grid.shape:
            raise ValueError("f_sharp must live on the grid")
        if self.f_vec.shape != (self.grid.dim,) + self.grid.shape:
            raise ValueError("f_vec must be a vector lattice field")
        if not (np.isfinite(self.f_sharp).all() and np.isfinite(self.f_vec).all()):
            raise ValueError("source data must be finite")
        mask = self.grid.masks().inside
        if np.any(self.f_sharp[~mask] != 0.0):
            raise ValueError("f_sharp must vanish outside Omega")


def constant_source(grid: GridSpec, value: float) -> SourceData:
    mask = grid.masks().inside
    f = np.zeros(grid.shape)
    f[mask] = value
    return SourceData(grid, f, np.zeros((grid.dim,) + grid.shape))


@dataclass(frozen=True)
class Threshold:
    """Gradient threshold g > 0; its global bounds g_star <= g <= g_upper
    are read off g."""

    grid: GridSpec
    g: np.ndarray

    def __post_init__(self):
        if self.g.shape != self.grid.shape:
            raise ValueError("g must live on the grid")
        if not np.isfinite(self.g).all():
            raise ValueError("g must be finite")
        if self.g.min() <= 0:
            raise ValueError("g must be positive")

    @property
    def g_star(self) -> float:
        return float(self.g.min())

    @property
    def g_upper(self) -> float:
        return float(self.g.max())


def constant_threshold(grid: GridSpec, value: float = 1.0) -> Threshold:
    return Threshold(grid, np.full(grid.shape, float(value)))


def threshold_replace(g_loc, grid: GridSpec, k: float | None = None) -> Threshold:
    """Replace a locally bounded threshold by an equivalent global one.

    Keeps g on Omega_R and a constant k >= ||g||_inf(Omega_R) outside; for
    thresholds growing at infinity the constrained problem cannot feel the
    replacement, so the solutions coincide.
    """
    vals = g_loc(grid.coords()) if callable(g_loc) else np.asarray(g_loc, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("threshold values must live on the grid")
    buffer_mask = grid.masks().buffer_inside
    cap = float(vals[buffer_mask].max())
    k_out = cap if k is None else max(float(k), cap)
    h = np.where(buffer_mask, vals, k_out)
    return Threshold(grid, h)


@dataclass(frozen=True)
class EmpiricalConstants:
    """Embedding constants estimated by Rayleigh maximization over bumps."""

    s: float
    c_star: float  # Sobolev/Morrey: ||v||_{L^{2*}(Omega)} <= c_star ||D^s v||_2
    c_0: float  # Poincare: ||v||_{L^p(Omega)} <= (c_0/s) ||D^s v||_p
    c_beta: float  # Holder: [v]_{C^{0,beta}} <= c_beta ||D^s v||_inf, beta = s/2
    samples: int


def estimate_constants(grid: GridSpec, s: float, samples: int = 64, seed: int = 0) -> EmpiricalConstants:
    """Estimate C_*, C_0 and C_beta over an ensemble of random bumps.

    The continuum statements only assert existence; the constants here are
    ensemble maxima of the corresponding Rayleigh quotients.
    """
    ens = random_bumps(grid, samples, seed=seed)
    mask = grid.masks().inside
    d = grid.dim
    two_star = np.inf if 2 * s >= d else 2 * d / (d - 2 * s)
    c_star = c_0 = c_beta = 0.0
    for v in ens:
        dv = frac_gradient_spectral(v, s)
        l2 = lp_norm(dv, 2.0)
        if l2 == 0.0:
            continue
        c_star = max(c_star, lp_norm(v, two_star, region=mask) / l2)
        for p in (1.0, 2.0, np.inf):
            dp = lp_norm(dv, p)
            if dp > 0:
                c_0 = max(c_0, s * lp_norm(v, p, region=mask) / dp)
        dinf = lp_norm(dv, np.inf)
        if dinf > 0:
            c_beta = max(c_beta, holder_seminorm(v, s / 2, mask) / dinf)
    return EmpiricalConstants(s=s, c_star=c_star, c_0=c_0, c_beta=c_beta, samples=len(ens))


@dataclass(frozen=True)
class CoercivityReport:
    """Margin delta = a_star - C_*(||b+dvec||_{p_bd} + C_* ||c^-||_{p_c})."""

    delta: float
    coercive: bool
    a_star: float
    c_star: float
    c_0: float
    c_beta: float
    norm_b_plus_d: float
    norm_c_minus: float
    exponent_bd: float
    exponent_c: float


def coercivity_margin(op: OperatorData, s: float, constants: EmpiricalConstants) -> CoercivityReport:
    """Coercivity margin of the form with empirical embedding constants.

    Exponents are d/s for b+dvec and d/(2s) for c^-; an exponent below 1
    (d=1 with s > 1/2) falls back to the L^1 norm, matching the low-exponent
    variant available when 2s >= d.  Degeneracy is reported, not raised.
    """
    grid = op.grid
    d = grid.dim
    mask = grid.masks().inside
    p_bd = max(d / s, 1.0)
    p_c = max(d / (2 * s), 1.0)
    bd = np.sqrt(np.sum((op.b + op.dvec) ** 2, axis=0))
    hd = grid.cell_volume
    norm_bd = float((hd * np.sum(bd[mask] ** p_bd)) ** (1 / p_bd))
    c_minus = np.maximum(0.0, -op.c)
    norm_cm = float((hd * np.sum(c_minus[mask] ** p_c)) ** (1 / p_c))
    delta = op.a_star - constants.c_star * (norm_bd + constants.c_star * norm_cm)
    return CoercivityReport(
        delta=float(delta),
        coercive=bool(delta > 0),
        a_star=op.a_star,
        c_star=constants.c_star,
        c_0=constants.c_0,
        c_beta=constants.c_beta,
        norm_b_plus_d=norm_bd,
        norm_c_minus=norm_cm,
        exponent_bd=p_bd,
        exponent_c=p_c,
    )


def bilinear_apply(op: OperatorData, u: ScalarField, v: ScalarField, s: float) -> float:
    """Evaluate L(u, v) by lattice quadrature."""
    if u.grid != op.grid or v.grid != op.grid:
        raise ValueError("fields and operator must share one grid")
    grid = op.grid
    hd = grid.cell_volume
    mask = grid.masks().inside
    du = frac_gradient_spectral(u, s).values
    dv = frac_gradient_spectral(v, s).values
    principal = hd * float(np.sum(op.apply_A(du) * dv))
    conv = hd * float(np.sum((op.dvec * u.values[None])[:, mask] * dv[:, mask]))
    lower = hd * float(
        np.sum((np.sum(op.b * du, axis=0)[mask] + op.c[mask] * u.values[mask]) * v.values[mask])
    )
    return principal + conv + lower


def linear_apply(src: SourceData, v: ScalarField, s: float) -> float:
    """Evaluate F(v) = int_Omega f_sharp v + int_box f_vec . D^s v."""
    if v.grid != src.grid:
        raise ValueError("field and source must share one grid")
    grid = src.grid
    hd = grid.cell_volume
    mask = grid.masks().inside
    dv = frac_gradient_spectral(v, s).values
    return hd * float(np.sum(src.f_sharp[mask] * v.values[mask]) + np.sum(src.f_vec * dv))


# -- config presets -------------------------------------------------------------


def scalar_from_preset(grid: GridSpec, cfg, mask: np.ndarray | None = None) -> np.ndarray:
    """Build a scalar coefficient lattice from a preset description.

    Presets: constant, gaussian-bump, indicator (of Omega), linear, raw;
    a bare number is shorthand for a constant.  A mask zeroes the field
    outside the given region.
    """
    if isinstance(cfg, (int, float)):
        cfg = {"preset": "constant", "value": float(cfg)}
    kind = cfg["preset"]
    pts = grid.coords()
    if kind == "constant":
        out = np.full(grid.shape, float(cfg["value"]))
    elif kind == "gaussian-bump":
        center = np.asarray(cfg.get("center", [0.0] * grid.dim), dtype=float)
        width = float(cfg.get("width", 0.5))
        amp = float(cfg.get("amplitude", 1.0))
        r2 = sum((pts[j] - center[j]) ** 2 for j in range(grid.dim))
        out = amp * np.exp(-r2 / (2 * width**2))
    elif kind == "indicator":
        out = np.where(grid.masks().inside, float(cfg.get("value", 1.0)), 0.0)
    elif kind == "linear":
        slope = np.asarray(cfg.get("slope", [0.0] * grid.dim), dtype=float)
        out = float(cfg.get("value", 0.0)) + sum(slope[j] * pts[j] for j in range(grid.dim))
    elif kind == "raw":
        out = np.asarray(cfg["values"], dtype=float).reshape(grid.shape)
    else:
        raise ValueError(f"unknown preset {kind!r}")
    if mask is not None:
        out = np.where(mask, out, 0.0)
    return out


def vector_from_preset(grid: GridSpec, cfg, mask: np.ndarray | None = None) -> np.ndarray:
    if cfg in (None, "zero") or (isinstance(cfg, dict) and cfg.get("preset") == "zero"):
        return np.zeros((grid.dim,) + grid.shape)
    comps = cfg["components"] if isinstance(cfg, dict) else cfg
    if len(comps) != grid.dim:
        raise ValueError("vector preset needs one component per axis")
    return np.stack([scalar_from_preset(grid, c, mask=mask) for c in comps])


def operator_from_preset(grid: GridSpec, cfg: dict) -> OperatorData:
    mask = grid.masks().inside
    return isotropic_operator(
        grid,
        a=scalar_from_preset(grid, cfg.get("a", 1.0)),
        b=vector_from_preset(grid, cfg.get("b"), mask=mask),
        dvec=vector_from_preset(grid, cfg.get("dvec"), mask=mask),
        c=scalar_from_preset(grid, cfg.get("c", 0.0), mask=mask),
    )


def source_from_preset(grid: GridSpec, cfg: dict) -> SourceData:
    mask = grid.masks().inside
    f_sharp = scalar_from_preset(grid, cfg.get("f_sharp", 0.0), mask=mask)
    f_vec = vector_from_preset(grid, cfg.get("f_vec"))
    return SourceData(grid, f_sharp, f_vec)


def threshold_from_preset(grid: GridSpec, cfg: dict) -> Threshold:
    vals = scalar_from_preset(grid, cfg.get("g", 1.0))
    if cfg.get("replace", False):
        return threshold_replace(vals, grid, k=cfg.get("k"))
    return Threshold(grid, vals)
