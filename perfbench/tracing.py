"""Timing spans around the public functions of each spectralcurves layer.

``Tracer.install`` rebinds every function listed in ``LAYERS`` wherever the
function object appears in a loaded ``spectralcurves.*`` module: the
defining module (so calls inside it are caught), the modules that did
``from .periods import solve_Ba``, and the package namespace the
benchmark calls through.  No file of the package changes.

Spans stay in memory as (name, parent, start, end) and are summarised, and
optionally written out, when the traced phase ends.
"""

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = {
    "curve": ("build_curve", "homology_cycles"),
    "polyring": ("roots", "approx_gcd", "resultant"),
    "periods": ("get_engine", "solve_Ba", "a_periods", "b_periods", "phi_map",
                "rational_plane_distance"),
    "invariants": ("classify", "pencil_gcd", "winding_arg", "winding_roots"),
    "whitham": ("flow", "whitham_tangent", "rotation_tangent", "bezout_solve",
                "attach_handle", "handle_invariant_check"),
    "grassmann": ("B_map", "gr_classify", "stratum_dimension_probe"),
}

SPAN_NAMES = ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans = []          # [name index, parent span, start, end]
        self._stack = []
        self._patched = []       # (module, attribute, original)
        self.engine_keys = set()
        self.engine_calls = 0
        self.engine_repeats = 0

    def _wrap(self, index, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([index, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][3] = time.perf_counter()

        return traced

    def _note_engine(self, fn):
        default = importlib.import_module("spectralcurves.periods").DEFAULT_QUAD

        @functools.wraps(fn)
        def counted(curve, quad=None):
            key = (curve, quad or default)
            self.engine_calls += 1
            if key in self.engine_keys:
                self.engine_repeats += 1
            else:
                self.engine_keys.add(key)
            return fn(curve, quad)

        return counted

    def install(self):
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "spectralcurves" or name.startswith("spectralcurves.")]
        for index, span in enumerate(SPAN_NAMES):
            mod, fn_name = span.split(".")
            original = getattr(importlib.import_module("spectralcurves." + mod), fn_name)
            wrapper = self._wrap(index, original)
            if span == "periods.get_engine":
                wrapper = self._note_engine(wrapper)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, scale=1.0):
        """Per function: calls and self time (ms, times ``scale``), where
        self time is the span's duration minus the time its child spans
        cover."""
        arr = np.asarray(self.spans, dtype=float).reshape(-1, 4)
        names = arr[:, 0].astype(int)
        parents = arr[:, 1].astype(int)
        dur = arr[:, 3] - arr[:, 2]
        child = np.zeros(len(arr))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ms = 1e3 * scale * (dur - child)
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        selfsum = np.bincount(names, weights=self_ms, minlength=len(SPAN_NAMES))
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[span + ".calls"] = int(calls[i])
            out[span + ".self_ms"] = float(selfsum[i])
        out["periods.engine_reuse_ratio"] = (
            self.engine_repeats / self.engine_calls if self.engine_calls else 0.0)
        return out

    def write(self, path):
        arr = np.asarray(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.asarray(SPAN_NAMES),
                            name=arr[:, 0].astype(np.int16),
                            parent=arr[:, 1].astype(np.int64),
                            start=arr[:, 2], end=arr[:, 3])
