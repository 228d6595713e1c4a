"""Experiment orchestration: run configs, sweeps, persistence, verification.

A run is described by a JSON-style mapping (grid, fractional order(s),
operator/source/threshold presets, solver controls) and produces a
self-describing directory: a deterministic manifest (config echo, seed,
versions, output checksums), binary field dumps with text headers, CSV
tables, and a separate timings file.  Identical config + seed reproduces
every artifact bit for bit; wall-clock timings are quarantined in
timings.json so the manifest stays comparable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .forms import (
    OperatorData,
    SourceData,
    Threshold,
    coercivity_margin,
    constant_source,
    constant_threshold,
    estimate_constants,
    isotropic_operator,
    operator_from_preset,
    source_from_preset,
    threshold_from_preset,
)
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    ball,
    bump,
    interval,
    lp_norm,
    normal_draws,
    random_bumps,
    rectangle,
    write_field,
)
from .oracle import analytic_mk_1d, analytic_torsion_1d, brute_force_qp, pdhg_solve
from .penalty import KKTReport, SolverConfig, Solution, continuation_solve
from .riesz import (
    adjointness_residual,
    frac_gradient_direct,
    frac_gradient_spectral,
    gamma_coeff,
    kernel_norm_ball,
    kernel_norm_tail,
    localization_error,
    mu_coeff,
    poincare_check,
    sphere_area,
    tail_decay_check,
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; `raw` echoes the source mapping."""

    grid: GridSpec
    s_list: tuple[float, ...]
    operator_cfg: dict
    source_cfg: dict
    threshold_cfg: dict
    solver: SolverConfig
    seed: int
    dependence_cfg: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return self.s_list[0]

    def build_operator(self) -> OperatorData:
        return operator_from_preset(self.grid, self.operator_cfg)

    def build_source(self) -> SourceData:
        return source_from_preset(self.grid, self.source_cfg)

    def build_threshold(self) -> Threshold:
        return threshold_from_preset(self.grid, self.threshold_cfg)


# the keys each config block accepts; "integrability" is only recorded
_CONFIG_KEYS = {
    "grid", "s", "s_list", "operator", "source", "threshold", "solver", "dependence", "integrability", "seed",
}
_GRID_KEYS = {"dim", "box_side", "points_per_axis", "omega", "buffer"}
_OMEGA_KEYS = {"interval": "halfwidth", "rectangle": "halfwidths", "ball": "radius"}
_DEPENDENCE_KEYS = {"tol", "source_shifts", "threshold_shifts"}
_PRESET_KEYS = {
    "operator": {"a", "b", "dvec", "c"},
    "source": {"f_sharp", "f_vec"},
    "threshold": {"g", "replace", "k"},
}


def _check_keys(block: str, mapping: dict, allowed) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {block} keys: {', '.join(unknown)}")


def _omega_from_mapping(m: dict):
    kind = m.get("shape", m.get("kind", "interval"))
    if kind not in _OMEGA_KEYS:
        raise ValueError(f"unknown Omega shape {kind!r}")
    _check_keys("grid.omega", m, {"shape", "kind", _OMEGA_KEYS[kind]})
    if kind == "interval":
        return interval(m.get("halfwidth", 1.0))
    if kind == "rectangle":
        return rectangle(*m["halfwidths"])
    return ball(m["radius"])


def config_from_mapping(cfg: dict) -> RunConfig:
    """Validate a config mapping; every module-level invariant is enforced
    here before any solve starts.  Unknown keys at the top level and in
    every block but integrability, which is only recorded, raise
    ValueError.  The defaults of the operator, source and threshold blocks
    live in their preset builders (forms.*_from_preset), and those of the
    solver block in SolverConfig, so an absent block equals an empty one."""
    _check_keys("config", cfg, _CONFIG_KEYS)
    gm = cfg["grid"]
    _check_keys("grid", gm, _GRID_KEYS)
    grid = GridSpec(
        dim=int(gm.get("dim", 1)),
        box_side=float(gm["box_side"]),
        points_per_axis=int(gm["points_per_axis"]),
        omega=_omega_from_mapping(gm.get("omega", {})),
        buffer=float(gm.get("buffer", 0.5)),
    )
    if "s_list" in cfg:
        s_list = tuple(float(s) for s in cfg["s_list"])
    else:
        s_list = (float(cfg.get("s", 0.5)),)
    for s in s_list:
        if not 0 < s <= 1:
            raise ValueError(f"s={s} outside (0, 1]")
    sm = dict(cfg.get("solver", {}))
    _check_keys("solver", sm, {f.name for f in fields(SolverConfig)})
    dm = dict(cfg.get("dependence", {}))
    _check_keys("dependence", dm, _DEPENDENCE_KEYS)
    for block, allowed in _PRESET_KEYS.items():
        _check_keys(block, cfg.get(block, {}), allowed)
    rc = RunConfig(
        grid=grid,
        s_list=s_list,
        operator_cfg=dict(cfg.get("operator", {})),
        source_cfg=dict(cfg.get("source", {})),
        threshold_cfg=dict(cfg.get("threshold", {})),
        solver=SolverConfig(**{k: float(v) if k in ("eps", "newton_tol") else v for k, v in sm.items()}),
        seed=int(cfg.get("seed", 0)),
        dependence_cfg=dm,
        raw=cfg,
    )
    rc.build_operator()
    rc.build_source()
    rc.build_threshold()
    return rc


def load_config(path: str | Path) -> RunConfig:
    return config_from_mapping(json.loads(Path(path).read_text()))


# -- persistence ------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, cfg_raw: dict, seed: int) -> None:
    outputs = {}
    for p in sorted(outdir.iterdir()):
        if p.name in ("manifest.json", "timings.json") or p.is_dir():
            continue
        outputs[p.name] = _sha256(p)
    manifest = {
        "config": cfg_raw,
        "seed": seed,
        "versions": {"fracmk": __version__, "numpy": np.__version__},
        "outputs": outputs,
    }
    outdir.joinpath("manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            # float(x): numpy scalars are float subclasses whose repr is np.float64(...)
            w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


# one row per continuation stage: the stage's eps and Newton work, then the report
_KKT_HEADER = ["eps", "iterations", "residual_norm"] + [f.name for f in fields(KKTReport)]


def run_solve(cfg: RunConfig, outdir: str | Path) -> list[tuple[float, Solution, KKTReport]]:
    """Continuation solve (or single eps) with full run-directory output."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    op, src, thr = cfg.build_operator(), cfg.build_source(), cfg.build_threshold()
    stages = continuation_solve(op, src, thr, cfg.s, cfg.solver)
    t1 = time.perf_counter()
    sol = stages[-1][1]
    write_field(sol.u, outdir / "u", s=cfg.s)
    write_field(sol.lam, outdir / "lambda", s=cfg.s)
    write_field(sol.psi, outdir / "psi", s=cfg.s)
    rows = [[eps, stage.iterations, stage.residual_norm, *astuple(report)] for eps, stage, report in stages]
    _write_csv(outdir / "kkt.csv", _KKT_HEADER, rows)
    _write_manifest(outdir, cfg.raw, cfg.seed)
    outdir.joinpath("timings.json").write_text(json.dumps({"solve_seconds": t1 - t0}) + "\n")
    return stages


def weak_battery(grid: GridSpec) -> list[ScalarField]:
    """Fixed battery of eight L^inf test functions on Omega: four smooth bumps
    at spread centers plus four low-order polynomials restricted to Omega."""
    mask = grid.masks().inside
    pts = grid.coords()
    out = []
    radius = grid.omega.inner_radius()
    centers = np.linspace(-0.5 * radius, 0.5 * radius, 4)
    for c0 in centers:
        center = (c0,) * grid.dim
        out.append(bump(grid, radius=radius / 2, center=center))
    for k0 in range(4):
        poly = np.where(mask, pts[0] ** k0, 0.0)
        out.append(ScalarField(grid, poly))
    return out


def _weak_lambda_error(lam_a, lam_b, grid: GridSpec, battery) -> float:
    """max over the battery of |<lam_a - lam_b, phi>_Omega| / ||phi||_inf."""
    mask = grid.masks().inside
    hd = grid.cell_volume
    diff = (lam_a - lam_b) * mask
    worst = 0.0
    for phi in battery:
        sup = float(np.max(np.abs(phi.values)))
        if sup == 0:
            continue
        worst = max(worst, abs(hd * float(np.sum(diff * phi.values))) / sup)
    return worst


def run_localize(cfg: RunConfig, outdir: str | Path | None = None) -> list[dict]:
    """Localization sweep: solve at s = 1 and at each s < 1 of s_list, compare.

    Reports sup error, an H^sigma surrogate error (spectral sigma-gradient
    at sigma = 0.5), and weak multiplier errors against the test battery,
    all measured against the classical s = 1 solution, one row per s with
    s = 1 last.  Entries s >= 1 of s_list are dropped.  s = 1 is solved
    first, then each s, one at a time, in s_list order.
    """
    s_values = [s for s in cfg.s_list if s < 1.0]
    op, src, thr = cfg.build_operator(), cfg.build_source(), cfg.build_threshold()
    sol_1 = continuation_solve(op, src, thr, 1.0, cfg.solver)[-1][1]
    battery = weak_battery(cfg.grid)
    sols = [continuation_solve(op, src, thr, s, cfg.solver)[-1][1] for s in s_values]
    rows = []
    for s, sol in zip(s_values + [1.0], sols + [sol_1]):
        diff = ScalarField(cfg.grid, sol.u.values - sol_1.u.values)
        rows.append(
            {
                "s": s,
                "sup_error": float(np.max(np.abs(diff.values))),
                "h_sigma_error": lp_norm(frac_gradient_spectral(diff, 0.5), 2.0),
                "weak_lambda_error": _weak_lambda_error(sol.lam.values, sol_1.lam.values, cfg.grid, battery),
            }
        )
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_csv(
            outdir / "localize.csv",
            ["s", "sup_error", "h_sigma_error", "weak_lambda_error"],
            [[r["s"], r["sup_error"], r["h_sigma_error"], r["weak_lambda_error"]] for r in rows],
        )
        _write_manifest(outdir, cfg.raw, cfg.seed)
    return rows


def run_dependence(cfg: RunConfig, outdir: str | Path | None = None) -> list[dict]:
    """Continuous-dependence ratios in the coercive regime.

    Source perturbations are compared against the a-priori bound
    (C_*/delta)||df||_{L^{2#}} + (1/delta)||df_vec||_2 with the empirical
    Sobolev constant; threshold perturbations against an empirically
    calibrated C_1 ||dg||_inf bound (calibrated at the largest shift with a
    1.5 safety factor, then tested on the others).  VI solutions come from
    the certified PDHG oracle.
    """
    s = cfg.s
    grid = cfg.grid
    op, src, thr = cfg.build_operator(), cfg.build_source(), cfg.build_threshold()
    consts = estimate_constants(grid, s, samples=32, seed=cfg.seed)
    report = coercivity_margin(op, s, consts)
    if not report.coercive:
        raise ValueError("dependence study requires a coercive operator (delta > 0)")
    delta = report.delta
    mask = grid.masks().inside
    hd = grid.cell_volume
    d = grid.dim
    two_sharp = 2 * d / (d + 2 * s) if s < d / 2 else 1.0

    tol = float(cfg.dependence_cfg.get("tol", 1e-9))
    base = pdhg_solve(op, src, thr, s, tol=tol)
    rows = []

    def h_s_norm(a, b):
        diff = ScalarField(grid, a - b)
        return lp_norm(frac_gradient_spectral(diff, s), 2.0)

    for shift in cfg.dependence_cfg.get("source_shifts", (0.1, 0.05, 0.2)):
        f_hat = np.where(mask, src.f_sharp + shift, 0.0)
        src_hat = SourceData(grid, f_hat, src.f_vec)
        sol_hat = pdhg_solve(op, src_hat, thr, s, tol=tol)
        measured = h_s_norm(sol_hat.u.values, base.u.values)
        df = ScalarField(grid, np.where(mask, f_hat - src.f_sharp, 0.0))
        bound = report.c_star / delta * lp_norm(df, two_sharp, region=mask)
        rows.append(
            {"kind": "source", "shift": float(shift), "measured": measured, "bound": bound,
             "ratio": measured / bound if bound > 0 else 0.0}
        )

    g_shifts = sorted(cfg.dependence_cfg.get("threshold_shifts", (0.1, 0.05)), reverse=True)
    if g_shifts:
        cal = g_shifts[0]
        sols = {}
        for shift in g_shifts:
            thr_hat = Threshold(grid, thr.g + shift)
            sols[shift] = pdhg_solve(op, src, thr_hat, s, tol=tol)
        m_cal = h_s_norm(sols[cal].u.values, base.u.values)
        c1 = 1.5 * m_cal**2 / cal
        for shift in g_shifts:
            measured = h_s_norm(sols[shift].u.values, base.u.values)
            bound2 = c1 * shift
            rows.append(
                {"kind": "threshold", "shift": float(shift), "measured": measured**2,
                 "bound": bound2, "ratio": measured**2 / bound2 if bound2 > 0 else 0.0,
                 "calibration": shift == cal}
            )

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_csv(
            outdir / "dependence.csv",
            ["kind", "shift", "measured", "bound", "ratio"],
            [[r["kind"], r["shift"], r["measured"], r["bound"], r["ratio"]] for r in rows],
        )
        _write_manifest(outdir, cfg.raw, cfg.seed)
    return rows


# -- verification suite ---------------------------------------------------------


def _verify_kernel_norms(rows):
    # Gauss-Legendre on (0, 1), after substitutions that turn each power-law
    # integrand smooth: r = R t^(1/alpha) on the ball, and r = R t^(-1/kappa)
    # on the tail, whose density decays like r^(-1-kappa)
    x, w = np.polynomial.legendre.leggauss(20)
    t, w = (x + 1) / 2, w / 2
    param_grid = [
        (d, alpha, R)
        for d in (1, 2)
        for alpha in (0.2, 0.5, 0.8)
        for R in (0.7, 1.5)
    ]
    for d, alpha, R in param_grid:
        closed = kernel_norm_ball(d, alpha, R)
        r = R * t ** (1 / alpha)
        oracle = float(np.sum(w * sphere_area(d) * gamma_coeff(d, alpha) * r ** (alpha - 1) * r / (alpha * t)))
        err = abs(closed - oracle) / oracle
        rows.append(("kernel_ball", f"d={d},alpha={alpha},R={R}", err, 1e-6, err <= 1e-6))
    tail_grid = [(1, 0.25, 2.0, 1.0), (1, 0.3, 2.5, 1.5), (2, 0.5, 3.0, 1.0), (2, 0.2, 2.0, 0.7)]
    for d, alpha, p, R in tail_grid:
        pp = p / (p - 1)
        closed = kernel_norm_tail(d, alpha, p, R)
        kappa = pp * (d - alpha) - d
        r = R * t ** (-1 / kappa)
        dens = sphere_area(d) * (gamma_coeff(d, alpha) * r ** (alpha - d)) ** pp * r ** (d - 1)
        oracle = float(np.sum(w * dens * r / (kappa * t))) ** (1 / pp)
        err = abs(closed - oracle) / oracle
        rows.append(("kernel_tail", f"d={d},alpha={alpha},p={p},R={R}", err, 1e-6, err <= 1e-6))
    balls = [kernel_norm_ball(1, a, 1.0) for a in (0.4, 0.2, 0.1, 0.05)]
    mono = all(a > b for a, b in zip(balls, balls[1:])) and abs(balls[-1] - 1) < 0.05
    rows.append(("kernel_ball_limit", "alpha->0", balls[-1], 1.05, mono))
    tails = [kernel_norm_tail(1, a, 2.0, 1.0) for a in (0.4, 0.2, 0.1, 0.05)]
    mono_t = all(a > b for a, b in zip(tails, tails[1:]))
    rows.append(("kernel_tail_limit", "alpha->0", tails[-1], tails[0], mono_t))


def _verify_adjointness(rows, rng):
    for dim, n in ((1, 1024), (2, 128)):
        omega = interval(1.0) if dim == 1 else ball(1.0)
        grid = GridSpec(dim=dim, box_side=8.0, points_per_axis=n, omega=omega, buffer=1.0)
        worst = 0.0
        for _ in range(100):
            u = ScalarField(grid, normal_draws(rng, grid.shape))
            xi = VectorField(grid, normal_draws(rng, (dim,) + grid.shape))
            s = 0.2 + 0.8 * rng.random()
            worst = max(worst, adjointness_residual(u, xi, s))
        rows.append(("adjointness", f"d={dim},n={n},pairs=100", worst, 1e-12, worst <= 1e-12))


def _verify_two_path(rows):
    grid = GridSpec(dim=1, box_side=4.0, points_per_axis=256, omega=interval(1.0), buffer=0.75)
    u = bump(grid)
    mask = grid.masks().buffer_inside
    for s in (0.3, 0.5, 0.7, 0.9):
        spec = frac_gradient_spectral(u, s).values[0][mask]
        direct = frac_gradient_direct(u, s, eval_mask=mask, periodic=True).values[0][mask]
        rel = float(np.linalg.norm(spec - direct) / np.linalg.norm(spec))
        rows.append(("two_path_gradient", f"s={s},n=256", rel, 1e-3, rel <= 1e-3))


def _verify_localization(rows):
    grid = GridSpec(dim=1, box_side=8.0, points_per_axis=512, omega=interval(1.0), buffer=1.0)
    errs = localization_error(bump(grid), [0.7, 0.9, 0.99])
    ok = bool(errs[0] > errs[1] > errs[2] and errs[2] <= 5e-2)
    rows.append(("operator_localization", "s=0.7,0.9,0.99", float(errs[2]), 5e-2, ok))


def _verify_tails(rows):
    grid = GridSpec(dim=1, box_side=8.0, points_per_axis=256, omega=interval(1.0), buffer=1.0)
    u = bump(grid)
    for p in (1.0, 2.0):
        res = tail_decay_check(u, 0.7, p, [1.0, 1.5, 2.0])
        ratio = max(res["ratio"])
        decreasing = all(a > b for a, b in zip(res["tail"], res["tail"][1:]))
        rows.append((f"tail_decay_p{int(p)}", "R=1,1.5,2", ratio, 1.0, bool(ratio <= 1.0 and decreasing)))
    dist = grid.omega_distance()
    outside = dist > 0
    l1 = grid.cell_volume * float(np.sum(np.abs(u.values)))
    worst = 0.0
    for s in (0.3, 0.7):
        dv = frac_gradient_direct(u, s, eval_mask=outside).magnitude()[outside]
        envelope = mu_coeff(1, s) * l1 / dist[outside] ** (1 + s)
        worst = max(worst, float(np.max(dv / envelope)))
    rows.append(("far_field_bound", "s=0.3,0.7", worst, 1.0, worst <= 1.0))


def _verify_poincare(rows):
    grid = GridSpec(dim=1, box_side=8.0, points_per_axis=256, omega=interval(1.0), buffer=1.0)
    ens = random_bumps(grid, 16, seed=11)
    vals = []
    for p in (1.0, 2.0, np.inf):
        for s in (0.5, 0.7, 0.9):
            vals.append(max(poincare_check(u, s, p) for u in ens) * s)
    spread = max(vals) / min(vals)
    rows.append(("poincare_scaled_ratio", "p=1,2,inf;s=0.5,0.7,0.9", spread, 3.0, spread <= 3.0))


def _anisotropic_operator(grid: GridSpec, diag) -> OperatorData:
    """A = diag(diag) at every node, no lower-order terms."""
    A = np.zeros((grid.dim, grid.dim) + grid.shape)
    for j, a in enumerate(diag):
        A[j, j] = a
    zero_v = np.zeros((grid.dim,) + grid.shape)
    return OperatorData(grid, A, zero_v, zero_v, np.zeros(grid.shape))


def _verify_oracle_triangle(rows):
    grid_1d = GridSpec(dim=1, box_side=4.0, points_per_axis=64, omega=interval(1.0), buffer=0.6)
    # the disc rows check the oracles with two components of D^s, the second
    # with an anisotropic A
    grid_2d = GridSpec(dim=2, box_side=4.0, points_per_axis=32, omega=ball(1.0), buffer=0.5)
    for grid, s, op, params in (
        (grid_1d, 1.0, isotropic_operator(grid_1d, a=1.0), "s=1.0,n=64"),
        (grid_1d, 0.7, isotropic_operator(grid_1d, a=1.0), "s=0.7,n=64"),
        (grid_2d, 0.7, isotropic_operator(grid_2d, a=1.0), "d=2,s=0.7,n=32"),
        (grid_2d, 0.7, _anisotropic_operator(grid_2d, (2.0, 0.5)), "d=2,A=diag(2;0.5),s=0.7,n=32"),
    ):
        src = constant_source(grid, 2.0)
        thr = constant_threshold(grid, 1.0)
        pen = continuation_solve(op, src, thr, s, SolverConfig(eps_schedule=(0.1, 0.03, 0.01, 3e-3, 1e-3)))[-1][1]
        pd = pdhg_solve(op, src, thr, s, tol=1e-8)
        qp = brute_force_qp(op, src, thr, s, tol=1e-8)
        worst = 0.0
        for a, b in ((pen, pd), (pen, qp), (pd, qp)):
            worst = max(worst, float(np.linalg.norm(a.u.values - b.u.values) / np.linalg.norm(b.u.values)))
        rows.append(("oracle_triangle", params, worst, 1e-3, worst <= 1e-3))


_VERIFY_CHECKS = {
    "kernels": _verify_kernel_norms,
    "adjointness": _verify_adjointness,
    "two-path": _verify_two_path,
    "localization": _verify_localization,
    "tails": _verify_tails,
    "poincare": _verify_poincare,
    "oracle-triangle": _verify_oracle_triangle,
}


def verify_names(selection: list[str] | None) -> list[str]:
    """The check names to run; raises ValueError naming any unknown one."""
    names = list(_VERIFY_CHECKS) if selection is None else list(selection)
    unknown = [name for name in names if name not in _VERIFY_CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s): {unknown}")
    return names


def run_verify(
    outdir: str | Path | None = None,
    seed: int = 0,
    selection: list[str] | None = None,
) -> tuple[list[tuple], bool]:
    """Run the kernel-identity suite plus the oracle agreement triangle.

    Returns (rows, all_pass); each row is (check, params, measured, bound,
    pass).  `selection` restricts to named checks (empty list = no checks,
    vacuously passing); `seed` seeds the random fields of the adjointness
    check, the only check that draws any.  An unknown name raises
    ValueError before any check runs.
    """
    rng = random.Random(seed)
    names = verify_names(selection)
    rows: list[tuple] = []
    for name in names:
        fn = _VERIFY_CHECKS[name]
        if name == "adjointness":
            fn(rows, rng)
        else:
            fn(rows)
    ok = all(r[4] for r in rows)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_csv(
            outdir / "verify.csv",
            ["check", "params", "measured", "bound", "pass"],
            [list(r) for r in rows],
        )
        _write_manifest(outdir, {"selection": names}, seed)
    return rows, ok


def run_oracle(cfg: RunConfig, outdir: str | Path) -> dict:
    """Dump benchmark fields and penalty-vs-analytic comparison tables."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid
    results = {}
    rows = []
    for name, bench in (
        ("torsion", analytic_torsion_1d(1.0, 2.0)),
        ("mk", analytic_mk_1d(1.0)),
    ):
        u_ex, lam_ex = bench.sample(grid)
        write_field(u_ex, outdir / f"{name}_u_exact")
        write_field(lam_ex, outdir / f"{name}_lambda_exact")
        op = operator_from_preset(grid, {"a": bench.a0})
        src = source_from_preset(grid, {"f_sharp": bench.f})
        thr = threshold_from_preset(grid, {"g": 1.0})
        stages = continuation_solve(op, src, thr, 1.0, cfg.solver)
        sol = stages[-1][1]
        write_field(sol.u, outdir / f"{name}_u_penalty", s=1.0)
        write_field(sol.lam, outdir / f"{name}_lambda_penalty", s=1.0)
        sup_u = float(np.max(np.abs(sol.u.values - u_ex.values)))
        weak = _weak_lambda_error(sol.lam.values, lam_ex.values, grid, weak_battery(grid))
        rows.append([name, sup_u, weak])
        results[name] = {"sup_u": sup_u, "weak_lambda": weak}
    _write_csv(outdir / "oracle.csv", ["benchmark", "sup_u_error", "weak_lambda_error"], rows)
    _write_manifest(outdir, cfg.raw, cfg.seed)
    return results
