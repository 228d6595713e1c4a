"""Spans around fracmk's public callables, recorded from outside the library.

A callable is traced by replacing it, at every module attribute that holds
it, with a wrapper that records a span: name, start, end and the enclosing
span.  Callers that look the name up at call time therefore go through the
wrapper; this includes the recursive cold-start chain of
``fracmk.penalty.solve_fixed_eps`` and the call-time import of
``fracmk.forms.bilinear_apply`` inside ``kkt_report``.  Spans stay in memory
until the run ends.  The split follows public boundaries only: work inside a
callable (Jacobian, residual, line search) shows up as that callable's self
time.

The workloads are single-threaded, so one span stack per tracer suffices.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module that defines the callable, attribute)
FRACMK_CALLABLES = (
    ("runs.run_solve", "fracmk.runs", "run_solve"),
    ("penalty.continuation_solve", "fracmk.penalty", "continuation_solve"),
    ("penalty.solve_fixed_eps", "fracmk.penalty", "solve_fixed_eps"),
    ("penalty.kkt_report", "fracmk.penalty", "kkt_report"),
    ("riesz.riesz_symbol", "fracmk.riesz", "riesz_symbol"),
    ("riesz.frac_gradient_spectral", "fracmk.riesz", "frac_gradient_spectral"),
    ("forms.bilinear_apply", "fracmk.forms", "bilinear_apply"),
    ("forms.linear_apply", "fracmk.forms", "linear_apply"),
    ("oracle.pdhg_solve", "fracmk.oracle", "pdhg_solve"),
)
NUMPY_CALLABLES = (("numpy.linalg.solve", "numpy.linalg", "solve"),) + tuple(
    (f"numpy.fft.{name}", "numpy.fft", name)
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
)

STAGES = 5  # the eps schedule length shared by the penalty workloads


class Span:
    __slots__ = ("name", "start", "end", "parent", "iterations")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.iterations = None


class Tracer:
    """Installs span-recording wrappers; `uninstall` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.iterations = getattr(out, "iterations", None)
            return out

        return traced

    def install(self) -> "Tracer":
        """Wrap every listed callable wherever a fracmk or numpy module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "fracmk" or n.startswith("fracmk."))]
        for name, home, attr in FRACMK_CALLABLES + NUMPY_CALLABLES:
            home_mod = importlib.import_module(home)
            original = getattr(home_mod, attr)
            wrapper = self._wrap(name, original)
            for mod in dict.fromkeys([home_mod] + modules):
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent] rows, start-ordered."""
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct children (which never overlap)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer counts and times, keyed by metric name."""
    self_t = self_times(spans)
    dur = [s.end - s.start for s in spans]
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for i, s in enumerate(spans):
        key = s.name
        if key.startswith("numpy.fft."):
            key = "numpy.fft"
        elif key == "numpy.linalg.solve":
            if _under(spans, i, "penalty.solve_fixed_eps"):
                key = "linsolve.penalty"
            elif _under(spans, i, "oracle.pdhg_solve"):
                key = "linsolve.oracle"
        calls[key] += 1
        total[key] += dur[i]
        own[key] += self_t[i]

    # a continuation stage is a solve_fixed_eps span not nested in another;
    # nested ones are its cold-start chain and count toward the same stage
    stage_iters = []
    for i, s in enumerate(spans):
        if s.name != "penalty.solve_fixed_eps":
            continue
        if _under(spans, i, "penalty.solve_fixed_eps"):
            stage_iters[-1] += s.iterations
        else:
            stage_iters.append(s.iterations)
    stage_iters += [0] * (STAGES - len(stage_iters))

    pdhg_iters = sum(s.iterations for s in spans if s.name == "oracle.pdhg_solve")
    out = {
        "penalty.newton_iters": sum(stage_iters),
        **{f"penalty.newton_iters.stage{k + 1}": stage_iters[k] for k in range(STAGES)},
        "penalty.stage_calls": calls["penalty.solve_fixed_eps"],
        "penalty.newton_self_s": own["penalty.solve_fixed_eps"],
        "penalty.linsolve_calls": calls["linsolve.penalty"],
        "penalty.linsolve_s": total["linsolve.penalty"],
        "penalty.kkt_s": total["penalty.kkt_report"],
        "penalty.kkt_self_s": own["penalty.kkt_report"],
        "riesz.symbol_calls": calls["riesz.riesz_symbol"],
        "riesz.symbol_s": total["riesz.riesz_symbol"],
        "riesz.grad_calls": calls["riesz.frac_gradient_spectral"],
        "riesz.grad_s": total["riesz.frac_gradient_spectral"],
        "riesz.fft_calls": calls["numpy.fft"],
        "riesz.fft_s": total["numpy.fft"],
        "forms.apply_calls": calls["forms.bilinear_apply"] + calls["forms.linear_apply"],
        "forms.apply_s": total["forms.bilinear_apply"] + total["forms.linear_apply"],
        "oracle.pdhg_iters": pdhg_iters,
        "oracle.prox_solve_calls": calls["linsolve.oracle"],
        "oracle.prox_solve_s": total["linsolve.oracle"],
        "oracle.pdhg_self_s": own["oracle.pdhg_solve"],
        "runs.overhead_s": own["runs.run_solve"],
    }
    return out
