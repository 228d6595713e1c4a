"""Lattice, mask, quadrature and norm behavior."""

import numpy as np
import pytest

from fracmk import (
    GridSpec,
    ScalarField,
    VectorField,
    ball,
    bump,
    holder_seminorm,
    interval,
    lp_norm,
    write_field,
)


def grid_1d(n=64, L=4.0):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=0.5)


def test_spec_invariants_enforced():
    with pytest.raises(ValueError):
        GridSpec(dim=1, box_side=4.0, points_per_axis=48, omega=interval(1.0), buffer=0.5)
    with pytest.raises(ValueError):
        GridSpec(dim=1, box_side=4.0, points_per_axis=8, omega=interval(1.0), buffer=0.5)
    with pytest.raises(ValueError):
        # Omega_R would touch the box edge
        GridSpec(dim=1, box_side=4.0, points_per_axis=64, omega=interval(1.0), buffer=1.0)
    with pytest.raises(ValueError):
        GridSpec(dim=3, box_side=4.0, points_per_axis=64, omega=ball(1.0), buffer=0.5)
    # NaN compares False with everything, so a check like x <= 0 lets it
    # through (and json.loads reads NaN): each length is named here instead
    # of failing later in masks() as an empty Omega
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="box_side must be positive and finite"):
            GridSpec(dim=1, box_side=bad, points_per_axis=64, omega=interval(1.0), buffer=0.5)
        with pytest.raises(ValueError, match="buffer must be positive and finite"):
            GridSpec(dim=1, box_side=4.0, points_per_axis=64, omega=interval(1.0), buffer=bad)
        with pytest.raises(ValueError, match="positive finite radius"):
            ball(bad)
        with pytest.raises(ValueError, match="positive finite halfwidths"):
            interval(bad)


def test_masks_nested_and_nonempty():
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(0.8), buffer=0.5)
    m = g.masks()
    assert m.inside.any() and m.buffer_inside.any()
    assert not (m.inside & ~m.buffer_inside).any()


def test_fields_are_immutable():
    g = grid_1d()
    f = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    v = VectorField(g, np.zeros((1,) + g.shape))
    with pytest.raises(ValueError):
        v.values[0, 0] = 1.0


def test_fields_reject_nonfinite():
    g = grid_1d()
    bad = np.zeros(g.shape)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_lp_norm_indicator_measure():
    g = grid_1d(n=256)
    mask = g.masks().inside
    one = ScalarField(g, mask.astype(float))
    # measure of Omega = (-1, 1)
    assert lp_norm(one, 1.0) == pytest.approx(2.0, abs=2 * g.spacing)


def test_lp_norm_matches_definition_p2():
    g = grid_1d()
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.normal(size=g.shape))
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(g.cell_volume * np.sum(f.values**2)), rel=1e-15)


def test_lp_norm_sine_closed_form():
    # int sin^2 over the box is L/2, exactly on the periodic lattice
    g = grid_1d(n=128, L=4.0)
    x = g.axis()
    f = ScalarField(g, np.sin(2 * np.pi * x / g.box_side))
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(g.box_side / 2), abs=1e-12)


def test_lp_norm_interpolation_inequality():
    g = grid_1d()
    mask = g.masks().inside
    rng = np.random.default_rng(7)
    measure = g.cell_volume * mask.sum()
    for _ in range(10):
        f = ScalarField(g, rng.normal(size=g.shape))
        for p, q in ((1.0, 2.0), (2.0, 4.0), (1.5, 3.0)):
            lhs = lp_norm(f, p, region=mask)
            rhs = lp_norm(f, q, region=mask) * measure ** (1 / p - 1 / q)
            assert lhs <= rhs * (1 + 1e-12)


def test_lp_norm_empty_region():
    g = grid_1d()
    empty = np.zeros(g.shape, dtype=bool)
    f = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        lp_norm(f, np.inf, region=empty)


def test_quadrature_consistency_under_refinement():
    # smooth periodic integrand: lattice quadrature at n and 2n agree to O(h^2)+
    vals = {}
    for n in (64, 128):
        g = grid_1d(n=n)
        x = g.axis()
        f = ScalarField(g, np.exp(np.sin(2 * np.pi * x / g.box_side)))
        vals[n] = lp_norm(f, 1.0)
    h = 4.0 / 64
    assert abs(vals[64] - vals[128]) <= h**2


def test_holder_seminorm_constant_and_linear():
    g = grid_1d(n=64)
    mask = g.masks().inside
    const = ScalarField(g, np.ones(g.shape))
    assert holder_seminorm(const, 0.5, mask) == 0.0

    x = g.axis()
    lin = ScalarField(g, x.copy())
    # Lipschitz constant of the identity on (-1,1)
    assert holder_seminorm(lin, 1.0, mask) == pytest.approx(1.0, abs=1e-12)


def test_holder_seminorm_sqrt_profile():
    # |x|^(1/2) has C^{0,1/2} seminorm exactly 1, attained against x=0;
    # frozen from the exhaustive pair sweep on this lattice
    g = grid_1d(n=64)
    mask = g.masks().inside
    x = g.axis()
    f = ScalarField(g, np.sqrt(np.abs(x)))
    val = holder_seminorm(f, 0.5, mask)
    assert val >= 1.0 - 1e-12
    assert val == pytest.approx(1.0, rel=1e-9)


def read_back(prefix):
    """The header as a dict and the values of a write_field dump."""
    hdr = dict(line.split("=", 1) for line in prefix.with_suffix(".hdr").read_text().splitlines())
    raw = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f8")
    shape = (int(hdr["components"]),) + (int(hdr["n"]),) * int(hdr["dim"])
    return hdr, raw.reshape(shape)


def test_field_round_trip(tmp_path):
    g = grid_1d()
    f = bump(g)
    write_field(f, tmp_path / "u", s=0.7)
    hdr, back = read_back(tmp_path / "u")
    assert np.array_equal(back[0], f.values)
    assert hdr == {"dim": "1", "n": "64", "L": "4.0", "s": "0.7", "components": "1"}


def test_vector_field_round_trip(tmp_path):
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(0.8), buffer=0.5)
    rng = np.random.default_rng(5)
    v = VectorField(g, rng.normal(size=(2,) + g.shape))
    write_field(v, tmp_path / "xi")
    hdr, back = read_back(tmp_path / "xi")
    assert np.array_equal(back, v.values)
    assert hdr["s"] == "none" and hdr["components"] == "2"


def test_bump_support_and_smoothness():
    g = grid_1d(n=256)
    u = bump(g)
    x = g.axis()
    assert np.all(u.values[np.abs(x) >= 1.0] == 0.0)
    assert u.values.max() == pytest.approx(1.0, abs=1e-12)
