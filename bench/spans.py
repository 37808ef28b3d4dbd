"""In-memory span tracer that measures kissgeo's layers from outside.

``tracing`` swaps the public functions listed in ``TRACED`` for wrappers in
every kissgeo module that holds them, including where a sibling module
imported them by name, and restores them on exit. Each call becomes one span
(name, start, end, parent, operation); spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MODULES = ("kissing", "numkernel", "lightcone", "embed", "completion", "io", "cli", "spheres")

# (defining module, function) pairs wrapped in the traced run.
TRACED = (
    ("kissing", "distance_matrix"),
    ("numkernel", "sym_eigen"),
    ("numkernel", "inertia"),
    ("numkernel", "gram_factor_lorentz"),
    ("lightcone", "to_lightcone"),
    ("lightcone", "from_lightcone"),
    ("lightcone", "lorentz_align"),
    ("embed", "check_kissing"),
    ("embed", "construct_embedding"),
    ("completion", "is_chordal"),
    ("completion", "mcs_order"),
    ("completion", "maximal_cliques"),
    ("completion", "verify_target_matrix"),
    ("completion", "complete_chordal"),
    ("io", "load_matrix"),
    ("io", "load_graph"),
    ("io", "dump_sphere_set"),
    ("io", "format_json"),
    ("cli", "main"),
)


def _work(name: str, args, result) -> int:
    """Work a call did, as a count that repeats exactly for the same input."""
    if name == "kissing.distance_matrix":
        m = len(args[0])
        return m * (m - 1) // 2
    if name == "numkernel.sym_eigen":
        return int(np.shape(args[0])[0]) ** 3
    if name == "completion.maximal_cliques":
        return len(result.cliques)
    return 0


@dataclass
class Tracer:
    """Spans as rows [name, start, end, parent index, operation, work, error].

    ``operation`` numbers the benchmark operation that caused a span; 0 is the
    set-up probe.
    """

    spans: list = field(default_factory=list)
    operation: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.operation, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _work(name, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per traced name: calls, total_s, self_s, work, errors."""
        duration = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, duration):
            if s[3] >= 0:
                child[s[3]] += d
        out = {f"{mod}.{fn}": {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "errors": 0}
               for mod, fn in TRACED}
        for s, d, c in zip(self.spans, duration, child):
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += float(d)
            row["self_s"] += float(d - c)
            row["work"] += s[5]
            row["errors"] += s[6] is not None
        return out


@contextmanager
def tracing(tracer: Tracer):
    """Route every call of a TRACED function through the tracer while active."""
    modules = [importlib.import_module("kissgeo")] + [
        importlib.import_module(f"kissgeo.{name}") for name in MODULES
    ]
    swapped = []
    try:
        for mod, fn in TRACED:
            original = getattr(importlib.import_module(f"kissgeo.{mod}"), fn)
            wrapper = tracer.wrap(f"{mod}.{fn}", original)
            for module in modules:
                if getattr(module, fn, None) is original:
                    setattr(module, fn, wrapper)
                    swapped.append((module, fn, original))
        yield tracer
    finally:
        for module, fn, original in reversed(swapped):
            setattr(module, fn, original)
