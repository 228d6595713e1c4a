"""Bilinear/linear form evaluation, coercivity margin, threshold replacement."""

import numpy as np
import pytest

from fracmk import (
    GridSpec,
    ScalarField,
    ball,
    bump,
    frac_divergence_spectral,
    frac_gradient_spectral,
    interval,
    lp_norm,
    random_bumps,
)
from fracmk.forms import (
    CoercivityReport,
    OperatorData,
    SourceData,
    Threshold,
    bilinear_apply,
    coercivity_margin,
    constant_source,
    constant_threshold,
    estimate_constants,
    isotropic_operator,
    linear_apply,
    operator_from_preset,
    scalar_from_preset,
    source_from_preset,
    threshold_from_preset,
    threshold_replace,
)


def grid_1d(n=128, L=4.0):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=0.6)


def masked_vector(grid, rng, scale=1.0):
    mask = grid.masks().inside
    v = np.where(mask, rng.normal(size=grid.shape), 0.0) * scale
    return v[None] if grid.dim == 1 else np.stack([v, v])


def test_operator_validation():
    g = grid_1d()
    with pytest.raises(ValueError):
        isotropic_operator(g, a=-1.0)  # negative A fails the eigenvalue check
    rng = np.random.default_rng(0)
    bad_b = rng.normal(size=(1,) + g.shape)  # nonzero outside Omega
    with pytest.raises(ValueError):
        isotropic_operator(g, a=1.0, b=bad_b)


def test_operator_rejects_a_indefinite_off_the_sampled_directions():
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=interval(1.0), buffer=0.5)
    delta = 1e-6
    A = np.zeros((2, 2) + g.shape)
    A[0, 0] = A[1, 1] = 1.0
    A[0, 1] = A[1, 0] = 1.0 + delta  # eigenvalues 2 + delta and -delta, along (1, -1)
    # a sampled check over 8 random unit directions sees no negative value
    rng = np.random.default_rng(12345)
    for _ in range(8):
        xi = rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        assert np.einsum("a,ab...,b->...", xi, A, xi).min() > 0.0
    zero_v = np.zeros((2,) + g.shape)
    with pytest.raises(ValueError, match="not nonnegative"):
        OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))
    # singular (rank-one) and skew-perturbed PSD coefficients are accepted
    A[0, 1] = A[1, 0] = 1.0
    OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))
    A[0, 1] += 5.0
    A[1, 0] -= 5.0
    OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))


def test_threshold_validation():
    g = grid_1d()
    with pytest.raises(ValueError, match="g must live on the grid"):
        Threshold(g, np.full(5, 1.0))
    # a g vanishing at one node was once accepted under a tiny stated g_star,
    # and PDHG divides by g
    vals = np.full(g.shape, 1.0)
    vals[7] = 0.0
    for bad in (vals, -vals):
        with pytest.raises(ValueError, match="g must be positive"):
            Threshold(g, bad)
    # the bounds are read off g
    thr = Threshold(g, vals + 0.5)
    assert (thr.g_star, thr.g_upper) == (0.5, 1.5)


def test_threshold_rejects_non_finite_values():
    # NaN compares false against 0, so the positivity check alone lets it through
    g = grid_1d()
    for bad in (np.nan, np.inf):
        vals = np.full(g.shape, 1.0)
        vals[3] = bad
        with pytest.raises(ValueError, match="g must be finite"):
            Threshold(g, vals)


def test_a_star_is_read_off_A():
    # the least eigenvalue of A's symmetric part; it was once 0 whatever A was
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=ball(1.0), buffer=0.5)
    zero_v = np.zeros((2,) + g.shape)
    A = np.zeros((2, 2) + g.shape)
    A[0, 0], A[1, 1] = 2.0, 1.0
    A[0, 1] = A[1, 0] = 0.5
    op = OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape))
    assert op.a_star == pytest.approx(1.5 - np.sqrt(0.5), abs=1e-15)
    assert coercivity_margin(op, 0.7, estimate_constants(g, 0.7, samples=8)).coercive
    # an asymmetric A with symmetric part I
    A[0, 0] = A[1, 1] = 1.0
    A[1, 0] = -0.5
    assert OperatorData(g, A, zero_v, zero_v, np.zeros(g.shape)).a_star == 1.0
    # within the nonnegativity tolerance the floor is 0
    assert isotropic_operator(g, a=-1e-13).a_star == 0.0
    # A = a Id: the least a
    a = np.random.default_rng(4).uniform(0.5, 2.0, size=g.shape)
    assert isotropic_operator(g, a=a).a_star == a.min()


def test_bilinear_pure_gradient_term():
    g = grid_1d()
    op = isotropic_operator(g, a=1.0)
    u = bump(g)
    val = bilinear_apply(op, u, u, 0.6)
    assert val == pytest.approx(lp_norm(frac_gradient_spectral(u, 0.6), 2.0) ** 2, rel=1e-12)


def test_bilinear_pure_mass_term():
    g = grid_1d()
    mask = g.masks().inside
    c = np.where(mask, 1.0, 0.0)
    op = isotropic_operator(g, a=0.0, c=c)
    u = bump(g)
    val = bilinear_apply(op, u, u, 0.6)
    assert val == pytest.approx(lp_norm(u, 2.0, region=mask) ** 2, rel=1e-12)


def test_bilinear_symmetry_when_b_equals_dvec():
    g = grid_1d()
    rng = np.random.default_rng(1)
    bv = masked_vector(g, rng, 0.5)
    op = isotropic_operator(g, a=1.0, b=bv, dvec=bv)
    fields = random_bumps(g, 6, seed=5)
    for u, v in zip(fields[:3], fields[3:]):
        luv = bilinear_apply(op, u, v, 0.7)
        lvu = bilinear_apply(op, v, u, 0.7)
        assert abs(luv - lvu) <= 1e-12 * max(1.0, abs(luv))


def test_bilinear_rejects_grid_mismatch():
    g1, g2 = grid_1d(128), grid_1d(64)
    op = isotropic_operator(g1, a=1.0)
    with pytest.raises(ValueError):
        bilinear_apply(op, bump(g1), bump(g2), 0.5)


def test_linear_zero_and_linearity():
    g = grid_1d()
    src0 = constant_source(g, 0.0)
    u = bump(g)
    assert linear_apply(src0, u, 0.5) == 0.0

    src = constant_source(g, 2.0)
    v1, v2 = random_bumps(g, 2, seed=9)
    a = 1.7
    combo = ScalarField(g, a * v1.values + v2.values)
    lhs = linear_apply(src, combo, 0.5)
    rhs = a * linear_apply(src, v1, 0.5) + linear_apply(src, v2, 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linear_fvec_adjointness_cross_check():
    # f_vec = D^s w pairs with v through minus the fractional Laplacian of v
    g = grid_1d()
    w, v = random_bumps(g, 2, seed=3)
    s = 0.6
    dw = frac_gradient_spectral(w, s)
    src = SourceData(g, np.zeros(g.shape), dw.values)
    lhs = linear_apply(src, v, s)
    lap_v = frac_divergence_spectral(frac_gradient_spectral(v, s), s)
    rhs = -g.cell_volume * float(np.sum(w.values * lap_v.values))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_coercivity_margin_trivial_cases():
    g = grid_1d()
    consts = estimate_constants(g, 0.7, samples=16, seed=0)
    op = isotropic_operator(g, a=2.5)
    rep = coercivity_margin(op, 0.7, consts)
    assert rep.delta == pytest.approx(2.5)
    assert rep.coercive

    degenerate = isotropic_operator(g, a=0.0)
    rep0 = coercivity_margin(degenerate, 0.7, consts)
    assert rep0.delta <= 0.0 and not rep0.coercive


def test_coercivity_report_reproduces_margin_formula():
    g = grid_1d()
    rng = np.random.default_rng(4)
    bv = masked_vector(g, rng, 0.1)
    mask = g.masks().inside
    c = np.where(mask, -0.05 * np.abs(rng.normal(size=g.shape)), 0.0)
    op = isotropic_operator(g, a=1.0, b=bv, c=c)
    consts = estimate_constants(g, 0.7, samples=16, seed=0)
    rep = coercivity_margin(op, 0.7, consts)
    rebuilt = rep.a_star - rep.c_star * (rep.norm_b_plus_d + rep.c_star * rep.norm_c_minus)
    assert rep.delta == pytest.approx(rebuilt, rel=1e-15)
    assert rep.norm_c_minus > 0  # c^- detected
    assert rep.exponent_c == 1.0  # d/(2s) < 1 falls back to L^1


def test_coercivity_witness_on_ensemble():
    g = grid_1d()
    rng = np.random.default_rng(7)
    bv = masked_vector(g, rng, 0.05)
    op = isotropic_operator(g, a=1.0, b=bv, dvec=bv)
    s = 0.7
    consts = estimate_constants(g, s, samples=32, seed=1)
    rep = coercivity_margin(op, s, consts)
    assert rep.coercive
    for v in random_bumps(g, 16, seed=8):
        lvv = bilinear_apply(op, v, v, s)
        dn = lp_norm(frac_gradient_spectral(v, s), 2.0)
        assert lvv >= rep.delta * dn**2 - 1e-10


def test_threshold_replace_bounded_input():
    g = grid_1d()
    vals = np.full(g.shape, 2.0)
    thr = threshold_replace(vals, g)
    buffer_mask = g.masks().buffer_inside
    assert np.all(thr.g[buffer_mask] == 2.0)
    assert np.all(thr.g[~buffer_mask] == 2.0)
    assert thr.g_star == 2.0


def test_threshold_replace_growing_input():
    g = grid_1d()
    x = g.coords()

    def growing(p):
        return 1.0 + np.abs(p[0]) ** 3  # satisfies the growth condition

    thr = threshold_replace(growing, g)
    buffer_mask = g.masks().buffer_inside
    assert np.allclose(thr.g[buffer_mask], growing(x)[buffer_mask])
    outside = thr.g[~buffer_mask]
    assert np.all(outside == outside[0])  # constant cap
    assert thr.g_upper < np.max(growing(x))  # genuinely bounded


def test_threshold_replace_rejects_nonpositive_floor():
    g = grid_1d()
    vals = np.zeros(g.shape)
    with pytest.raises(ValueError, match="g must be positive"):
        threshold_replace(vals, g)


def test_presets_cover_named_shapes():
    g = grid_1d()
    c = scalar_from_preset(g, {"preset": "constant", "value": 3.0})
    assert np.all(c == 3.0)
    gb = scalar_from_preset(g, {"preset": "gaussian-bump", "amplitude": 2.0, "width": 0.3})
    assert gb.max() == pytest.approx(2.0, rel=1e-12)
    ind = scalar_from_preset(g, {"preset": "indicator"})
    assert set(np.unique(ind)) == {0.0, 1.0}
    lin = scalar_from_preset(g, {"preset": "linear", "value": 1.0, "slope": [2.0]})
    x = g.axis()
    assert np.allclose(lin, 1.0 + 2.0 * x)
    raw = scalar_from_preset(g, {"preset": "raw", "values": list(np.arange(g.points_per_axis, dtype=float))})
    assert raw[5] == 5.0
    with pytest.raises(ValueError):
        scalar_from_preset(g, {"preset": "wavelet"})


def test_operator_and_source_presets():
    g = grid_1d()
    op = operator_from_preset(g, {"a": 1.0, "c": {"preset": "constant", "value": 2.0}})
    mask = g.masks().inside
    assert np.all(op.c[mask] == 2.0) and np.all(op.c[~mask] == 0.0)
    src = source_from_preset(g, {"f_sharp": 1.5})
    assert np.all(src.f_sharp[mask] == 1.5)
    thr = threshold_from_preset(g, {"g": 2.0})
    assert thr.g_star == 2.0
