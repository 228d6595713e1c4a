"""Transport potentials and densities under fractional gradient constraints.

A numpy library for the constrained variational system

    L^s u - D^s.(lambda D^s u) = f - D^s.f_vec,
    |D^s u| <= g,  lambda >= 0,  lambda (|D^s u| - g) = 0,

on a periodic computational box, solved by exponential penalization of the
constraint, plus a q-power regularization where the operator degenerates,
with independent first-order and brute-force oracles.

Exports resolve lazily (PEP 562): importing the package loads no numpy, so
the command line can cap the BLAS/FFT thread pools before numpy starts them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "grid": (
        "DomainMask", "GridSpec", "OmegaShape", "ScalarField", "VectorField", "ball",
        "bump", "holder_seminorm", "interval", "lp_norm", "random_bumps", "rectangle",
        "write_field",
    ),
    "riesz": (
        "adjointness_residual", "frac_divergence_spectral", "frac_gradient_direct",
        "frac_gradient_spectral", "gamma_coeff", "kernel_norm_ball", "kernel_norm_tail",
        "localization_error", "mu_coeff", "poincare_check", "riesz_convolve",
        "riesz_symbol", "sphere_area", "tail_decay_check",
    ),
    "forms": (
        "CoercivityReport", "EmpiricalConstants", "OperatorData", "SourceData",
        "Threshold", "bilinear_apply", "coercivity_margin", "constant_source",
        "constant_threshold", "estimate_constants", "isotropic_operator",
        "linear_apply", "threshold_replace",
    ),
    "oracle": (
        "AnalyticBenchmark", "analytic_mk_1d", "analytic_torsion_1d", "brute_force_qp",
        "pdhg_solve",
    ),
    "penalty": (
        "KKTReport", "PenaltyFn", "Solution", "SolverConfig", "continuation_solve",
        "kkt_report", "solve_fixed_eps",
    ),
    "runs": (
        "RunConfig", "config_from_mapping", "load_config", "run_dependence",
        "run_localize", "run_oracle", "run_solve", "run_verify",
    ),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
