"""In-memory span tracing around the entry points of the sbm_miss layers.

The tracer wraps functions and methods from outside the package: nothing in
``src/`` knows it exists.  Each call of a wrapped entry point records a span
(name, start, end, parent span).  Spans stay in memory; self times and counts
are derived once the traced call has finished.  A span's self time is its
duration minus the durations of its direct children, so the self times of all
spans of one call, the root included, add up to the root's duration.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (span name, sbm_miss module, function) for every wrapped entry point.
# Module-level functions are replaced in every sbm_miss module that imported
# them, so calls through ``from .x import f`` names are caught as well.
FUNCTIONS = (
    ("vem.fit_single", "vem", "fit_single"),
    ("vem.explore", "vem", "explore"),
    ("vem.fit_from_json", "vem", "fit_from_json"),
    ("sampling.sampling_loglik", "sampling", "sampling_loglik"),
    ("sampling.update_psi", "sampling", "update_psi"),
    ("sampling.nu_logit_correction", "sampling", "nu_logit_correction"),
    ("sbm.expected_loglik_sbm", "sbm", "expected_loglik_sbm"),
    ("sbm.fit_covariate_connectivity", "sbm", "fit_covariate_connectivity"),
    ("sbm.predict_probabilities", "sbm", "predict_probabilities"),
    ("sbm.spectral_init", "sbm", "spectral_init"),
    ("sbm.kmeans", "sbm", "kmeans"),
    ("network.fit_logistic", "network", "fit_logistic"),
    ("io.read_network", "io", "read_network"),
    ("io.write_float_matrix", "io", "write_float_matrix"),
    ("io.write_csv_rows", "io", "write_csv_rows"),
    ("cli.main", "cli", "main"),
)
METHODS = (
    ("vem.ve_step", "vem", "_Engine", "ve_step"),
    ("vem.nu_update", "vem", "_Engine", "_nu_update"),
    ("vem.elbo", "vem", "_Engine", "elbo_parts"),
    ("vem.m_step", "vem", "_Engine", "m_step"),
    ("network.filled", "network", "PartialAdjacency", "filled"),
    ("cli.fit_json", "vem", "FitCollection", "to_json"),
)
SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS + METHODS)
ROOT = "bench"

# Every metric ``layer_metrics`` returns, with its unit: the self time of each
# span, then counts taken at the same boundaries.
LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_NAMES},
    "vem.ve_step.calls": "count", "vem.fits": "count", "vem.iterations": "count",
    "vem.max_iter_stops": "count", "vem.explore.candidates": "count",
    "vem.explore.accepted": "count", "sbm.fit_covariate_connectivity.calls": "count",
    "sbm.kmeans.calls": "count", "network.fit_logistic.calls": "count",
    "network.filled.calls": "count", "network.filled.bytes": "B", "io.bytes_written": "B",
    "trace.wall_s": "s", "trace.unwrapped_s": "s",
}


class Tracer:
    """Records the spans of wrapped calls made under :meth:`call`."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.fits: list = []          # (span index, FitResult) per fit_single call
        self.explores: list = []      # (input collection, output collection)
        self.filled_sizes: list[int] = []
        self.bytes_written = 0
        self._saved: list = []

    # -- span recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result
        return wrapper

    # -- per-entry-point extras ------------------------------------------------

    def _after_fit(self, idx, args, kwargs, result):
        self.fits.append((idx, result))

    def _after_explore(self, idx, args, kwargs, result):
        self.explores.append((args[0], result))

    def _after_filled(self, idx, args, kwargs, result):
        self.filled_sizes.append(result.nbytes)

    def _after_write(self, idx, args, kwargs, result):
        self.bytes_written += os.path.getsize(args[0])

    # -- install / restore -------------------------------------------------------

    def call(self, fn):
        """Run ``fn`` under a root span with every entry point wrapped."""
        self.install()
        try:
            root = self.open(ROOT)
            try:
                return fn()
            finally:
                self.close(root)
        finally:
            self.uninstall()

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "sbm_miss" or key.startswith("sbm_miss.")]
        after = {"vem.fit_single": self._after_fit, "vem.explore": self._after_explore,
                 "io.write_float_matrix": self._after_write, "io.write_csv_rows": self._after_write,
                 "network.filled": self._after_filled}
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"sbm_miss.{module}"], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"sbm_miss.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, after.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self times, counts and derived totals of everything recorded so far."""
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]
            calls[name] += 1

        in_explore = set()
        for idx, (name, _, _, parent) in enumerate(self.spans):
            if name == "vem.explore" or (parent is not None and parent in in_explore):
                in_explore.add(idx)
        candidates = sum(1 for idx, _ in self.fits if idx in in_explore)
        accepted = sum(sum(a is not b for a, b in zip(before.models, after.models))
                       for before, after in self.explores)

        out = {f"{name}.s": self_time[name] for name in SPAN_NAMES}
        out.update({
            "vem.ve_step.calls": calls["vem.ve_step"],
            "vem.fits": calls["vem.fit_single"],
            "vem.iterations": sum(len(fit.monitoring) - 1 for _, fit in self.fits),
            "vem.max_iter_stops": sum(not fit.converged for _, fit in self.fits),
            "vem.explore.candidates": candidates,
            "vem.explore.accepted": accepted,
            "sbm.fit_covariate_connectivity.calls": calls["sbm.fit_covariate_connectivity"],
            "sbm.kmeans.calls": calls["sbm.kmeans"],
            "network.fit_logistic.calls": calls["network.fit_logistic"],
            "network.filled.calls": calls["network.filled"],
            "network.filled.bytes": sum(self.filled_sizes),
            "io.bytes_written": self.bytes_written,
            "trace.wall_s": sum(end - start for name, start, end, _ in self.spans if name == ROOT),
            "trace.unwrapped_s": self_time[ROOT],
        })
        return out
