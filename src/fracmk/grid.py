"""Periodic computational box, discrete fields, masks, quadrature and norms.

The continuum problem lives on all of R^d with fields supported in a bounded
domain Omega.  Numerically everything is sampled on a uniform lattice over a
periodic box (-L/2, L/2)^d that contains Omega and a buffer region Omega_R
with margin, so that what leaks past the box edge is below solver tolerance.
All quadrature is the equal-weight h^d rule, which on a periodic lattice is
the trapezoidal rule and matches spectral differentiation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf, prod
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class OmegaShape:
    """Centered domain Omega: an interval/rectangle (via halfwidths) or a ball."""

    kind: str  # "interval" | "rectangle" | "ball"
    halfwidths: tuple[float, ...] = ()
    radius: float = 0.0

    def __post_init__(self):
        if self.kind in ("interval", "rectangle"):
            # 0 < a < inf is False for NaN, which would pass a <= 0 unnoticed
            if not self.halfwidths or not all(0 < a < inf for a in self.halfwidths):
                raise ValueError("box-like Omega needs positive finite halfwidths")
        elif self.kind == "ball":
            if not 0 < self.radius < inf:
                raise ValueError("ball Omega needs a positive finite radius")
        else:
            raise ValueError(f"unknown Omega kind {self.kind!r}")

    def outer_radius(self) -> float:
        if self.kind == "ball":
            return self.radius
        return float(np.linalg.norm(self.halfwidths))

    def inner_radius(self) -> float:
        if self.kind == "ball":
            return self.radius
        return min(self.halfwidths)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of strict membership; points has shape (d, ...)."""
        if self.kind == "ball":
            return np.sqrt(np.sum(points**2, axis=0)) < self.radius
        inside = np.ones(points.shape[1:], dtype=bool)
        for j, a in enumerate(self.halfwidths):
            inside &= np.abs(points[j]) < a
        return inside

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance to Omega (0 inside), shape (d, ...) -> (...)."""
        if self.kind == "ball":
            return np.maximum(np.sqrt(np.sum(points**2, axis=0)) - self.radius, 0.0)
        gaps = [np.maximum(np.abs(points[j]) - a, 0.0) for j, a in enumerate(self.halfwidths)]
        return np.sqrt(sum(g**2 for g in gaps))


def interval(halfwidth: float) -> OmegaShape:
    return OmegaShape("interval", halfwidths=(float(halfwidth),))


def rectangle(*halfwidths: float) -> OmegaShape:
    return OmegaShape("rectangle", halfwidths=tuple(float(a) for a in halfwidths))


def ball(radius: float) -> OmegaShape:
    return OmegaShape("ball", radius=float(radius))


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice of n^d nodes on the box (-L/2, L/2)^d.

    Nodes sit at x_i = -L/2 + i*h per axis, h = L/n.  Omega and its buffer
    Omega_R must fit strictly inside the box with margin >= 2h per side.
    """

    dim: int
    box_side: float
    points_per_axis: int
    omega: OmegaShape
    buffer: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        n = self.points_per_axis
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two, >= 16")
        for name in ("box_side", "buffer"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be positive and finite")
        margin = self.box_side / 2 - (self.omega.outer_radius() + self.buffer)
        if margin < 2 * self.spacing:
            raise ValueError(
                f"Omega_R must fit in the box with margin >= 2h (margin={margin:g})"
            )

    @property
    def spacing(self) -> float:
        return self.box_side / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axis(self) -> np.ndarray:
        n, L = self.points_per_axis, self.box_side
        return -L / 2 + self.spacing * np.arange(n)

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (dim, n, ...)."""
        return np.stack(np.meshgrid(*[self.axis()] * self.dim, indexing="ij"))

    def omega_distance(self) -> np.ndarray:
        return self.omega.distance(self.coords())

    def masks(self) -> "DomainMask":
        pts = self.coords()
        inside = self.omega.contains(pts)
        buffer_inside = self.omega.distance(pts) < self.buffer
        return DomainMask(inside=inside, buffer_inside=buffer_inside)


@dataclass(frozen=True)
class DomainMask:
    """Boolean lattices marking Omega and the buffered Omega_R."""

    inside: np.ndarray
    buffer_inside: np.ndarray

    def __post_init__(self):
        if not self.inside.any() or not self.buffer_inside.any():
            raise ValueError("masks must be nonempty")
        if (self.inside & ~self.buffer_inside).any():
            raise ValueError("inside must be contained in buffer_inside")
        self.inside.flags.writeable = False
        self.buffer_inside.flags.writeable = False


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScalarField:
    """Real scalar lattice field; immutable after construction."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class VectorField:
    """d-component lattice field, stored as one array of shape (d, n, ...)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.shape != (self.grid.dim,) + self.grid.shape:
            raise ValueError("vector values must have shape (dim,) + grid shape")
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values**2, axis=0))


def lp_norm(f: ScalarField | VectorField, p: float, region: np.ndarray | None = None) -> float:
    """L^p norm by h^d quadrature; p=inf is the sup over region nodes.

    Vector fields are reduced to their pointwise Euclidean magnitude first.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    mag = f.magnitude() if isinstance(f, VectorField) else np.abs(f.values)
    if region is not None:
        mag = mag[region]
    if np.isinf(p):
        if mag.size == 0:
            raise ValueError("sup norm over an empty region")
        return float(np.max(mag))
    if mag.size == 0:
        return 0.0
    return float((f.grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


def holder_seminorm(f: ScalarField, beta: float, region: np.ndarray) -> float:
    """Discrete C^{0,beta} seminorm: sup over node pairs of |f(x)-f(y)|/|x-y|^beta.

    Exhaustive over the region's nodes, O(N^2); meant for modest masks.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    pts = f.grid.coords()[:, region]  # (d, N)
    vals = f.values[region]
    if vals.size < 2:
        return 0.0
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.sqrt(np.sum((pts[:, :, None] - pts[:, None, :]) ** 2, axis=0))
    iu = np.triu_indices(vals.size, k=1)
    return float(np.max(diff[iu] / dist[iu] ** beta))


def bump(grid: GridSpec, radius: float | None = None, center: tuple[float, ...] | None = None) -> ScalarField:
    """Smooth bump exp(1 - 1/(1 - r^2)) supported in the ball of given radius.

    Defaults to a bump filling Omega (radius = inner radius of Omega).  The
    profile is C^infinity with compact support, so it is exactly zero on the
    lattice outside the ball.
    """
    if radius is None:
        radius = grid.omega.inner_radius()
    pts = grid.coords()
    if center is not None:
        pts = pts - np.asarray(center, dtype=float).reshape((grid.dim,) + (1,) * grid.dim)
    r2 = np.sum(pts**2, axis=0) / radius**2
    out = np.zeros(grid.shape)
    core = r2 < 1.0
    out[core] = np.exp(1.0 - 1.0 / (1.0 - r2[core]))
    return ScalarField(grid, out)


def uniform_draws(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """An array of rng.random() draws, uniform on [0, 1), filled in C order:
    the one method of the stdlib generator whose sequence for a seed CPython
    keeps across versions."""
    return np.fromiter(iter(rng.random, None), float, prod(shape)).reshape(shape)


def normal_draws(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """An array of standard normal draws, filled in C order, by Box-Muller:
    uniform_draws u1, u2 of (n + 1) // 2 pairs give the 2 (n + 1) // 2
    normals r cos(2 pi u2), then r sin(2 pi u2), r = sqrt(-2 log(1 - u1)),
    of which the first n are kept."""
    n = prod(shape)
    u1, u2 = uniform_draws(rng, (2, (n + 1) // 2))
    r, t = np.sqrt(-2.0 * np.log1p(-u1)), 2 * np.pi * u2
    return np.concatenate([r * np.cos(t), r * np.sin(t)])[:n].reshape(shape)


def random_bumps(grid: GridSpec, count: int, seed: int = 0) -> list[ScalarField]:
    """Ensemble of random smooth fields compactly supported in Omega.

    Sums of four low-frequency random cosines windowed by the Omega bump;
    used to estimate embedding constants and as test fields.  Every draw
    comes from the stdlib random.Random(seed) through uniform_draws, so the
    fields are the same on every Python version and no numpy.random is
    loaded: integer wave vectors in [-3, 3]^d, uniform phases and normal
    amplitudes.
    """
    rng = random.Random(seed)
    window = bump(grid).values
    pts = grid.coords()
    L = grid.box_side
    fields = []
    for _ in range(count):
        profile = np.zeros(grid.shape)
        for _ in range(4):
            kvec = np.floor(7.0 * uniform_draws(rng, (grid.dim,))) - 3.0
            phase = 2 * np.pi * rng.random()
            amp = float(normal_draws(rng, ()))
            arg = 2 * np.pi / L * sum(kvec[j] * pts[j] for j in range(grid.dim))
            profile += amp * np.cos(arg + phase)
        fields.append(ScalarField(grid, window * profile))
    return fields


# -- serialization: raw binary + plain-text header -----------------------------


def write_field(f: ScalarField | VectorField, path_prefix: str | Path, s: float | None = None) -> None:
    """Dump a field as <prefix>.bin (float64, C order) + <prefix>.hdr text header."""
    prefix = Path(path_prefix)
    comps = 1 if isinstance(f, ScalarField) else f.grid.dim
    prefix.with_suffix(".bin").write_bytes(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    hdr = [
        f"dim={f.grid.dim}",
        f"n={f.grid.points_per_axis}",
        f"L={f.grid.box_side!r}",
        f"s={'none' if s is None else repr(float(s))}",
        f"components={comps}",
    ]
    prefix.with_suffix(".hdr").write_text("\n".join(hdr) + "\n")
