"""Kernel constants, the two gradient discretizations, and the identity suite."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracmk import (
    GridSpec,
    ScalarField,
    VectorField,
    adjointness_residual,
    ball,
    bump,
    frac_divergence_spectral,
    frac_gradient_direct,
    frac_gradient_spectral,
    gamma_coeff,
    interval,
    kernel_norm_ball,
    kernel_norm_tail,
    localization_error,
    lp_norm,
    mu_coeff,
    poincare_check,
    random_bumps,
    riesz_convolve,
    riesz_symbol,
    sphere_area,
    tail_decay_check,
)


def grid_1d(n=256, L=8.0, buffer=1.0):
    return GridSpec(dim=1, box_side=L, points_per_axis=n, omega=interval(1.0), buffer=buffer)


# -- constants ----------------------------------------------------------------


def test_sphere_areas():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * np.pi)


def test_gamma_coeff_half_order():
    # gamma_{1,1/2} collapses to 1/sqrt(2 pi)
    assert gamma_coeff(1, 0.5) == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-14)


def test_mu_vanishes_towards_one():
    assert mu_coeff(1, 0.999) < mu_coeff(1, 0.9)
    assert mu_coeff(2, 0.999) < mu_coeff(2, 0.9)
    assert mu_coeff(1, 1.0) == 0.0


# -- kernel norms (closed forms vs quadrature oracles) -------------------------


def test_kernel_ball_closed_form_value():
    # frozen: 4/sqrt(2 pi), cross-checked by adaptive quadrature
    val = kernel_norm_ball(1, 0.5, 1.0)
    assert val == pytest.approx(4 / np.sqrt(2 * np.pi), rel=1e-13)
    oracle = quad(lambda r: 2 * gamma_coeff(1, 0.5) * r**-0.5, 0.0, 1.0)[0]
    assert val == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("d,alpha,R", [(1, 0.3, 0.7), (1, 0.8, 2.0), (2, 0.5, 1.5), (2, 0.2, 1.0)])
def test_kernel_ball_against_quadrature(d, alpha, R):
    oracle = quad(
        lambda r: sphere_area(d) * gamma_coeff(d, alpha) * r ** (alpha - 1), 0.0, R
    )[0]
    assert kernel_norm_ball(d, alpha, R) == pytest.approx(oracle, rel=1e-9)


def test_kernel_ball_homogeneity():
    a = kernel_norm_ball(2, 0.4, 1.3)
    b = kernel_norm_ball(2, 0.4, 2.6)
    assert b / a == pytest.approx(2**0.4, rel=1e-13)


def test_kernel_ball_limit_monotone_to_one():
    for R in (1.0, 2.0):
        vals = [kernel_norm_ball(1, a, R) for a in (0.4, 0.2, 0.1, 0.05)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > 1.0  # approaches 1 from above
    assert kernel_norm_ball(1, 0.05, 1.0) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("d,alpha,p,R", [(1, 0.25, 2.0, 1.0), (1, 0.3, 2.5, 1.5), (2, 0.5, 3.0, 1.0)])
def test_kernel_tail_against_quadrature(d, alpha, p, R):
    pprime = p / (p - 1)

    def dens(r):
        return sphere_area(d) * (gamma_coeff(d, alpha) * r ** (alpha - d)) ** pprime * r ** (d - 1)

    oracle = quad(dens, R, np.inf)[0] ** (1 / pprime)
    assert kernel_norm_tail(d, alpha, p, R) == pytest.approx(oracle, rel=1e-6)


def test_kernel_tail_decreases_in_R():
    vals = [kernel_norm_tail(1, 0.25, 2.0, R) for R in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


def test_kernel_tail_limit_monotone_to_zero():
    vals = [kernel_norm_tail(1, a, 2.0, 1.0) for a in (0.4, 0.2, 0.1, 0.05)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 0.1


def test_kernel_tail_rejects_bad_exponents():
    with pytest.raises(ValueError):
        kernel_norm_tail(1, 0.6, 2.0, 1.0)  # alpha p >= d


# -- symbol and spectral operators ---------------------------------------------


def test_symbol_oddness_and_magnitude():
    g = grid_1d(n=64)
    m = riesz_symbol(g, 0.6)[0]
    # real-valuedness: m(-k) = conj(m(k)), which for the purely imaginary
    # symbol is the same as oddness m(-k) = -m(k)
    for i in range(1, 32):
        assert m[-i] == pytest.approx(np.conj(m[i]), rel=1e-14)
        assert m[-i] == pytest.approx(-m[i], rel=1e-14)
    k = 2 * np.pi * np.fft.fftfreq(64, d=g.spacing)
    inner = np.abs(k) < np.abs(k).max() / 2
    assert np.abs(m[inner])[1:] == pytest.approx(np.abs(k[inner])[1:] ** 0.6, rel=1e-13)


def test_symbol_memoised_and_read_only():
    g = grid_1d(n=64)
    m = riesz_symbol(g, 0.6)
    assert riesz_symbol(g, np.float64(0.6)) is m
    assert riesz_symbol(g, 0.7) is not m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 1] = 0.0


def test_spectral_gradient_real_output():
    g = grid_1d(n=128)
    rng = np.random.default_rng(2)
    u = ScalarField(g, rng.normal(size=g.shape))
    m = riesz_symbol(g, 0.55)
    cplx = np.fft.ifft(m[0] * np.fft.fft(u.values))
    assert np.max(np.abs(cplx.imag)) <= 1e-12 * np.max(np.abs(cplx.real))


def test_zero_fields_map_to_zero():
    g = grid_1d(n=64)
    z = ScalarField(g, np.zeros(g.shape))
    assert not frac_gradient_spectral(z, 0.5).values.any()
    assert not riesz_convolve(z, 0.5).values.any()
    zv = VectorField(g, np.zeros((1,) + g.shape))
    assert not frac_divergence_spectral(zv, 0.5).values.any()


def test_s1_reduces_to_classical_gradient():
    g = grid_1d(n=128, L=4.0, buffer=0.5)
    x = g.axis()
    u = ScalarField(g, np.sin(2 * np.pi * x / g.box_side))
    d = frac_gradient_spectral(u, 1.0).values[0]
    exact = (2 * np.pi / g.box_side) * np.cos(2 * np.pi * x / g.box_side)
    assert np.max(np.abs(d - exact)) < 1e-13


def test_riesz_convolve_plane_wave_eigenrelation():
    g = grid_1d(n=128, L=4.0, buffer=0.5)
    x = g.axis()
    for k0 in (1, 5):
        pw = ScalarField(g, np.cos(2 * np.pi * k0 * x / g.box_side))
        conv = riesz_convolve(pw, 0.35)
        ev = (2 * np.pi * k0 / g.box_side) ** (-0.35)
        assert np.max(np.abs(conv.values - ev * pw.values)) < 1e-13


def test_riesz_convolve_approximate_identity_trend():
    g = grid_1d(n=512)
    w = bump(g)
    errs = [np.max(np.abs(riesz_convolve(w, a).values - w.values)) for a in (0.4, 0.2, 0.1, 0.05)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    # on a mean-free field the sup error genuinely vanishes
    dw = frac_gradient_spectral(w, 1.0)
    wz = ScalarField(g, dw.values[0])
    errs0 = [np.max(np.abs(riesz_convolve(wz, a).values - wz.values)) for a in (0.4, 0.2, 0.1, 0.05)]
    assert all(e1 > e2 for e1, e2 in zip(errs0, errs0[1:]))
    assert errs0[-1] < 0.2 * errs0[0]


def test_adjointness_random_fields():
    g = grid_1d(n=512)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        u = ScalarField(g, rng.normal(size=g.shape))
        xi = VectorField(g, rng.normal(size=(1,) + g.shape))
        worst = max(worst, adjointness_residual(u, xi, rng.uniform(0.2, 1.0)))
    assert worst <= 1e-12


def test_adjointness_fault_injection_hook(monkeypatch):
    # a divergence of order s + 1e-3 is no longer the gradient's adjoint
    from fracmk import riesz

    div = riesz.frac_divergence_spectral
    monkeypatch.setattr(riesz, "frac_divergence_spectral", lambda xi, s: div(xi, s + 1e-3))
    g = grid_1d(n=256)
    rng = np.random.default_rng(10)
    u = ScalarField(g, rng.normal(size=g.shape))
    xi = VectorField(g, rng.normal(size=(1,) + g.shape))
    assert adjointness_residual(u, xi, 0.6) > 1e-8


def test_divergence_of_gradient_is_fractional_laplacian():
    g = grid_1d(n=256)
    x = g.axis()
    for k0, s in ((2, 0.4), (7, 0.85)):
        u = ScalarField(g, np.cos(2 * np.pi * k0 * x / g.box_side))
        lap = frac_divergence_spectral(frac_gradient_spectral(u, s), s)
        ev = (2 * np.pi * k0 / g.box_side) ** (2 * s)
        assert np.max(np.abs(lap.values + ev * u.values)) < 1e-11


# -- direct path ---------------------------------------------------------------


def test_direct_gradient_zero_field():
    g = grid_1d(n=64)
    z = ScalarField(g, np.zeros(g.shape))
    assert not frac_gradient_direct(z, 0.5).values.any()


def test_direct_rejects_s_one():
    g = grid_1d(n=64)
    with pytest.raises(ValueError):
        frac_gradient_direct(bump(g), 1.0)


def test_direct_eval_mask_restriction():
    g = grid_1d(n=64)
    u = bump(g)
    mask = g.masks().inside
    d = frac_gradient_direct(u, 0.5, eval_mask=mask, periodic=True)
    assert not d.values[0][~mask].any()
    assert d.values[0][mask].any()


def _reference_direct(u, s, eval_idx, periodic):
    """Per-node, per-image sum of the singular integral: offsets wrap into
    (-L/2, L/2], the near field is compensated against the principal image."""
    from fracmk.riesz import _CUTOFF, _IMAGES_1D, _IMAGES_2D, _box_exterior_term, _cutoff_moment, _fd_gradient

    g = u.grid
    d, h, L = g.dim, g.spacing, g.box_side
    pts = g.coords().reshape(d, -1)
    uv = u.values.ravel()
    du = _fd_gradient(u.values, h).reshape(d, -1)
    rho = (max(int(np.floor(_CUTOFF / h - 0.5)), 1) + 0.5) * h
    images = (_IMAGES_1D if d == 1 else _IMAGES_2D) if periodic else 0
    shifts = [np.array(m, dtype=float) * L for m in np.ndindex(*(2 * images + 1,) * d)]

    def kern(z):
        r = np.sqrt(np.sum(z**2, axis=0))
        return np.where(r < h / 4, 0.0, z / np.maximum(r, h / 4) ** (d + s + 1))

    out = np.zeros((d, eval_idx.size))
    for c, i in enumerate(eval_idx):
        z0 = pts[:, [i]] - pts
        if periodic:
            z0 = z0 - L * np.ceil(z0 / L - 0.5)
        for shift in shifts:
            k = kern(z0 + (shift - images * L)[:, None])
            out[:, c] += g.cell_volume * np.sum((uv[i] - uv) * k, axis=1)
        near = np.max(np.abs(z0), axis=0) <= rho + h / 4
        k0 = kern(z0) * near
        M = g.cell_volume * (z0 @ k0.T)
        out[:, c] += du[:, i] * _cutoff_moment(d, s, rho) - M @ du[:, i]
        if not periodic and uv[i] != 0.0:
            out[:, c] += uv[i] * _box_exterior_term(g, s, pts[:, [i]])[:, 0]
    return mu_coeff(d, s) * out


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
def test_direct_matches_reference_loop(dim, periodic):
    if dim == 1:
        g = GridSpec(dim=1, box_side=4.0, points_per_axis=32, omega=interval(1.0), buffer=0.5)
    else:
        g = GridSpec(dim=2, box_side=4.0, points_per_axis=16, omega=ball(0.8), buffer=0.5)
    u = random_bumps(g, 1, seed=3)[0]
    s = 0.4
    # nodes inside Omega, in the buffer, outside it and next to the box edge
    mask = np.zeros(g.shape, dtype=bool)
    mask.flat[:: 5 if dim == 1 else 17] = True
    mask.flat[-1] = True
    idx = np.flatnonzero(mask)
    got = frac_gradient_direct(u, s, eval_mask=mask, periodic=periodic).values.reshape(dim, -1)[:, idx]
    ref = _reference_direct(u, s, idx, periodic)
    assert np.abs(ref).max() > 0
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_two_path_agreement_1d():
    g = GridSpec(dim=1, box_side=4.0, points_per_axis=256, omega=interval(1.0), buffer=0.75)
    u = bump(g)
    mask = g.masks().buffer_inside
    for s in (0.3, 0.7):
        spec = frac_gradient_spectral(u, s).values[0][mask]
        direct = frac_gradient_direct(u, s, eval_mask=mask, periodic=True).values[0][mask]
        rel = np.linalg.norm(spec - direct) / np.linalg.norm(spec)
        assert rel <= 1e-3


def test_two_path_agreement_2d_order_h():
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    u = bump(g)
    mask = g.masks().buffer_inside
    s = 0.5
    spec = frac_gradient_spectral(u, s).values[:, mask]
    direct = frac_gradient_direct(u, s, eval_mask=mask, periodic=True).values[:, mask]
    rel = np.linalg.norm(spec - direct) / np.linalg.norm(spec)
    assert rel <= 0.5 * g.spacing


def test_far_field_bound_outside_omega():
    g = grid_1d(n=256)
    u = bump(g)
    dist = g.omega_distance()
    outside = dist > 0
    l1 = g.cell_volume * np.sum(np.abs(u.values))
    for s in (0.3, 0.7):
        dvals = frac_gradient_direct(u, s, eval_mask=outside).magnitude()[outside]
        envelope = mu_coeff(1, s) * l1 / dist[outside] ** (1 + s)
        assert np.all(dvals <= envelope * (1 + 1e-12))


def test_far_field_bound_2d():
    g = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(0.8), buffer=0.4)
    u = bump(g)
    dist = g.omega_distance()
    outside = dist > 0.2
    l1 = g.cell_volume * np.sum(np.abs(u.values))
    s = 0.5
    dvals = frac_gradient_direct(u, s, eval_mask=outside).magnitude()[outside]
    envelope = mu_coeff(2, s) * l1 / dist[outside] ** (2 + s)
    assert np.all(dvals <= envelope * (1 + 1e-12))


# -- identity-suite operations ---------------------------------------------------


def test_localization_error_s_equal_one_is_zero():
    g = grid_1d(n=128)
    w = bump(g)
    assert localization_error(w, [1.0])[0] == 0.0


def test_localization_error_strictly_decreasing():
    g = grid_1d(n=512)
    w = bump(g)
    errs = localization_error(w, [0.7, 0.9, 0.99])
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-2


def test_localization_far_field_vanishes_with_s():
    # outside Omega_R the sup obeys the mu_s envelope, which vanishes as s->1
    g = grid_1d(n=256)
    w = bump(g)
    dist = g.omega_distance()
    region = dist >= 1.0
    l1 = g.cell_volume * np.sum(np.abs(w.values))
    sups, envs = [], []
    for s in (0.7, 0.9, 0.99):
        d = frac_gradient_direct(w, s, eval_mask=region)
        sups.append(float(np.max(d.magnitude()[region])))
        envs.append(mu_coeff(1, s) * l1 / 1.0 ** (1 + s))
    assert all(m <= e for m, e in zip(sups, envs))
    assert sups[0] > sups[1] > sups[2]
    assert envs[2] < 1e-2


def test_tail_decay_zero_field():
    g = grid_1d(n=64)
    z = ScalarField(g, np.zeros(g.shape))
    res = tail_decay_check(z, 0.6, 2.0, [1.0, 1.5])
    assert all(t == 0.0 for t in res["tail"])


def test_tail_decay_single_constant():
    g = grid_1d(n=256)
    u = bump(g)
    for p in (1.0, 2.0):
        res = tail_decay_check(u, 0.7, p, [1.0, 1.5, 2.0])
        assert res["tail"][0] > res["tail"][1] > res["tail"][2]
        assert max(res["ratio"]) <= 1.0


def test_tail_decay_rejects_R_outside_box():
    g = grid_1d(n=64)
    with pytest.raises(ValueError):
        tail_decay_check(bump(g), 0.6, 2.0, [5.0])


def test_poincare_zero_field_convention():
    g = grid_1d(n=64)
    z = ScalarField(g, np.zeros(g.shape))
    assert poincare_check(z, 0.6, 2.0) == 0.0


def test_poincare_scaled_ratio_stable():
    g = grid_1d(n=256)
    ens = random_bumps(g, 16, seed=11)
    table = {}
    for p in (1.0, 2.0, np.inf):
        for s in (0.5, 0.7, 0.9):
            table[(p, s)] = max(poincare_check(u, s, p) for u in ens) * s
    vals = list(table.values())
    # a single C_0 covers every (p, s): the scaled ratios live in one band
    assert max(vals) / min(vals) <= 3.0
    assert max(vals) < 1.0


def test_norm_comparison_constant_stable_under_refinement():
    cs = {}
    for n in (128, 256):
        g = grid_1d(n=n)
        ens = random_bumps(g, 16, seed=4)
        ratios = []
        for u in ens:
            d = frac_gradient_spectral(u, 0.6)
            ratios.append(lp_norm(d, 1.5) / lp_norm(d, 3.0))
        cs[n] = max(ratios)
    assert abs(cs[256] - cs[128]) <= 0.15 * cs[128]
