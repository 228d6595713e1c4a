"""Command-line entry point.

Subcommands: solve, localize, depend, verify-kernels, oracle.
Configs are JSON (schema documented in the README); outputs go to
<output-root>/<run-name> with a deterministic manifest.  The output root
resolves from --output-root, then $FRACMK_OUTPUT_ROOT, then ./runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path


def _output_root(args) -> Path:
    if args.output_root:
        return Path(args.output_root)
    env = os.environ.get("FRACMK_OUTPUT_ROOT")
    return Path(env) if env else Path("runs")


def _run_dir(args, kind: str, payload: dict) -> Path:
    if args.run_name:
        return _output_root(args) / args.run_name
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:10]
    return _output_root(args) / f"{kind}-{digest}"


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _load(args):
    from .runs import config_from_mapping, load_config

    cfg = load_config(args.config)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["seed"] = args.seed
        cfg = config_from_mapping(raw)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracmk", description=__doc__)
    parser.add_argument("--output-root", default=None, help="run directory root (or $FRACMK_OUTPUT_ROOT)")
    parser.add_argument("--run-name", default=None, help="run directory name (default: <cmd>-<config hash>)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None, help="thread cap for BLAS/FFT pools")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_cfg in (
        ("solve", True),
        ("localize", True),
        ("depend", True),
        ("oracle", True),
        ("verify-kernels", False),
    ):
        p = sub.add_parser(name)
        if needs_cfg:
            p.add_argument("--config", required=True)
    sub.choices["verify-kernels"].add_argument(
        "--select", default=None, help="comma-separated check names; empty string = no checks"
    )

    args = parser.parse_args(argv)
    _apply_threads(args.threads)

    # imports deferred so --threads can cap the pools before numpy spins up
    from .runs import run_dependence, run_localize, run_oracle, run_solve, run_verify, verify_names

    if args.command == "verify-kernels":
        if args.select is None:
            selection = None
        else:
            selection = [s for s in args.select.split(",") if s]
        try:
            verify_names(selection)
        except ValueError as exc:
            print(f"verify-kernels: {exc}", file=sys.stderr)
            return 2
        outdir = _run_dir(args, "verify", {"select": selection, "seed": args.seed or 0})
        rows, ok = run_verify(outdir=outdir, seed=args.seed or 0, selection=selection)
        for check, params, measured, bound, passed in rows:
            print(f"{'PASS' if passed else 'FAIL'} {check:24s} {params:32s} measured={measured:.3e} bound={bound:.3e}")
        print(f"report: {outdir / 'verify.csv'}")
        return 0 if ok else 1

    cfg = _load(args)
    payload = {"config": cfg.raw, "seed": cfg.seed}
    outdir = _run_dir(args, args.command, payload)

    if args.command == "solve":
        stages = run_solve(cfg, outdir)
        eps, sol, rep = stages[-1]
        print(
            f"solved s={cfg.s} eps={eps:g}: iters={sol.iterations} "
            f"violation={rep.violation_sup:.3e} complementarity={rep.complementarity:.3e}"
        )
    elif args.command == "localize":
        rows = run_localize(cfg, outdir)
        for r in rows:
            print(f"s={r['s']:.3f} sup={r['sup_error']:.4e} h_sigma={r['h_sigma_error']:.4e} weak_lambda={r['weak_lambda_error']:.4e}")
    elif args.command == "depend":
        rows = run_dependence(cfg, outdir)
        worst = 0.0
        for r in rows:
            if not r.get("calibration"):
                worst = max(worst, r["ratio"])
            print(f"{r['kind']:9s} shift={r['shift']:.3f} measured={r['measured']:.4e} bound={r['bound']:.4e} ratio={r['ratio']:.3f}")
        if worst > 1.0:
            print("dependence ratio exceeded its bound", file=sys.stderr)
            return 1
    elif args.command == "oracle":
        results = run_oracle(cfg, outdir)
        for name, vals in results.items():
            print(f"{name}: sup_u={vals['sup_u']:.4e} weak_lambda={vals['weak_lambda']:.4e}")
    print(f"run directory: {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
