"""Span tracing of otrobust from outside the package.

A Tracer wraps the public entry points of each otrobust module (listed in
TARGETS, one layer per module) for the duration of a `with tracer:` block.
Every call becomes a span: name, layer, run id, parent span, start, end,
the batch rows it handled and a small info dict. Spans stay in memory and
are written out once, when the run ends. The package itself carries no
instrumentation.

Module-level functions are replaced in every loaded otrobust module that
holds them (so `from .x import f` call sites are covered); methods are
replaced on their class.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    run: str
    parent: int
    start: float
    end: float = 0.0
    rows: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _x_rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _rhs_rows(args, kwargs, result):
    # ClosedLoop.state_rhs(self, t, x, p=None)
    return _x_rows(args[2] if len(args) > 2 else kwargs["x"]), None


def _divergence_rows(args, kwargs, result):
    # divergence(rhs, x, p, t, ...)
    return _x_rows(args[1] if len(args) > 1 else kwargs["x"]), None


def _trim_info(args, kwargs, result):
    return int(result.iterations), {"nonconverged": int(not result.converged)}


def _propagate_info(args, kwargs, snaps):
    from otrobust import liouville
    a = inspect.signature(liouville.propagate).bind(*args, **kwargs).arguments
    cloud, dt = a["cloud"], float(a["dt"])
    steps = int(round((float(a["t_f"]) - cloud.t) / dt))
    # Live sample-steps, approximated from the emitted snapshots: each
    # interval counts the samples still live at its closing emit time.
    live = sum(int(round((s1.t - s0.t) / dt)) * int(np.count_nonzero(~s1.diverged))
               for s0, s1 in zip(snaps[:-1], snaps[1:]))
    return cloud.n, {"steps": steps, "sample_steps": cloud.n * steps, "live": live}


# (module, attribute, layer, hook). The hook maps (args, kwargs, result)
# to (rows, info) for the span.
TARGETS = [
    ("otrobust.f16", "AeroTables.default", "f16", None),
    ("otrobust.f16", "ClosedLoop.state_rhs", "f16", _rhs_rows),
    ("otrobust.controller", "LqrLaw.__call__", "controller", None),
    ("otrobust.controller", "ScheduledLaw.__call__", "controller", None),
    ("otrobust.controller", "linearize_plant", "controller", None),
    ("otrobust.controller", "lqr_gain", "controller", None),
    ("otrobust.controller", "build_schedule", "controller", None),
    ("otrobust.trim", "find_trim", "trim", _trim_info),
    ("otrobust.trim", "trim_grid", "trim", None),
    ("otrobust.sampling", "halton", "sampling", None),
    ("otrobust.sampling", "mcmc_sample", "sampling", None),
    ("otrobust.sampling", "weighted_cloud", "sampling", None),
    ("otrobust.liouville", "propagate", "liouville", _propagate_info),
    ("otrobust.liouville", "divergence", "liouville", _divergence_rows),
    ("otrobust.transport", "wasserstein_lp", "transport", None),
    ("otrobust.transport", "extended_wasserstein", "transport", None),
    ("otrobust.transport", "wasserstein_dirac", "transport", None),
    ("otrobust.harness", "run_scenario", "harness", None),
    ("otrobust.harness", "save_report", "harness", None),
]


class Tracer:
    """Collects spans while active; `run` labels the spans of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name: str, layer: str, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, layer, self.run, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.rows, info = hook(args, kwargs, result)
                if info:
                    span.info = info
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "otrobust" or k.startswith("otrobust.")]
        for mod_name, attr, layer, hook in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, attr, layer, hook))
                else:
                    new = self._wrap(raw, attr, layer, hook)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(orig, attr, layer, hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig))
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **vars(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def outermost(spans: list[Span], layer: str) -> list[int]:
    """Indices of the layer's spans that no span of the same layer encloses."""
    idx = []
    for i, s in enumerate(spans):
        if s.layer != layer:
            continue
        p = s.parent
        while p >= 0 and spans[p].layer != layer:
            p = spans[p].parent
        if p < 0:
            idx.append(i)
    return idx
