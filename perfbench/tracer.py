"""Spans around the public functions that ``qbmlab.cli`` calls.

The tracer wraps each function from outside the package, in its defining
module and in the CLI's namespace, so calls between modules are seen too.
A span is ``[name, layer, start, end, parent, count, peak_bytes]``: the
parent is the index of the enclosing span, ``count`` is the work the call
did (roots, mode samples, quadrature nodes) read from its arguments and
result, and ``peak_bytes`` is the tracemalloc peak above the memory in use
when the span began.  tracemalloc runs only inside the layers that report
a peak, so the Python-heavy CSV writing in the CLI is not slowed by it.
"""

import functools
import importlib
import time
import tracemalloc

import numpy as np

# layer -> functions; README.md names the end-to-end metric each should move
LAYERS = {
    "model": [("qbmlab.model", "paper_default_model"), ("qbmlab.model", "load_model"),
              ("qbmlab.continuum", "lorentzian_density"),
              ("qbmlab.model", "validate_dissipation")],
    "eigensolve": [("qbmlab.eigensolve", "solve_normal_modes")],
    "dynamics": [("qbmlab.dynamics", "evolve_series")],
    "langevin": [("qbmlab.langevin", "langevin_table")],
    "recurrence": [("qbmlab.recurrence", "analyze"), ("qbmlab.recurrence", "poincare_time")],
    "continuum": [("qbmlab.continuum", "pole_estimate"),
                  ("qbmlab.continuum", "validate_continuum"),
                  ("qbmlab.continuum", "build_weight_table"),
                  ("qbmlab.continuum", "survival_amplitude_continuum")],
}
ALLOC_LAYERS = frozenset({"eigensolve", "dynamics", "langevin", "continuum"})


def _mode_samples(args, result):
    """Modes x times x columns of a returned TimeSeries."""
    return args[0].n_modes * result.grid.count * len(result.columns)


COUNTS = {
    "solve_normal_modes": lambda args, result: result.n_modes,
    "evolve_series": _mode_samples,
    "langevin_table": _mode_samples,
    "analyze": lambda args, result: args[1].grid.count,
    "build_weight_table": lambda args, result: result.nodes.size,
    "survival_amplitude_continuum": lambda args, result: np.size(args[1]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._alloc = []     # [current bytes at span start, running peak] per open span

    def install(self, cli):
        """Wrap every layer function; return the wrapped ``cli.main``."""
        for layer, functions in LAYERS.items():
            for module_name, name in functions:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}:{module_name}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                setattr(module, name, wrapper)
                if getattr(cli, name, None) is fn:
                    setattr(cli, name, wrapper)
        return self._wrap("cli", "main", cli.main)

    def export(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}

    def _alloc_enter(self):
        if self._alloc:
            top = self._alloc[-1]
            top[1] = max(top[1], tracemalloc.get_traced_memory()[1])
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._alloc.append([tracemalloc.get_traced_memory()[0], 0])

    def _alloc_exit(self) -> int:
        base, peak = self._alloc.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        if self._alloc:
            top = self._alloc[-1]
            top[1] = max(top[1], peak)
        else:
            tracemalloc.stop()
        return peak - base

    def _wrap(self, layer, name, fn):
        count_of = COUNTS.get(name)
        alloc = layer in ALLOC_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if alloc:
                self._alloc_enter()
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                self._stack.pop()
                if alloc:
                    span[6] = self._alloc_exit()
            if count_of is not None:
                try:
                    span[5] = int(count_of(args, result))
                except (AttributeError, TypeError, IndexError):
                    pass  # signature changed: the work count is unmeasured
            return result

        return wrapper
