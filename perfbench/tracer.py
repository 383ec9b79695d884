"""Outside-in tracer: wraps public functions at the module boundaries of
``maxfilt`` from the benchmark's side, without touching the program.

Every module attribute that *is* a traced function is replaced, so calls made
through ``from .core import max_filter`` style imports are caught as well as
calls through the defining module.  Each thread keeps its own span stack, so
work done on a worker thread (``pipeline.parallel_map``) is never charged to
a span open on another thread.

Self time of a span is its wall duration minus the durations of the traced
spans it opened on the same thread.  A span that waits on a thread pool
therefore keeps the waiting in its self time.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

# Boundary functions per layer, named after the modules of ``src/maxfilt``.
BOUNDARIES = {
    "core": ("max_filter", "filter_bank_apply", "quotient_distance", "apply_witness"),
    "groups": ("mf_cyclic", "mf_sort_permutation", "mf_shift_conjugate",
               "mf_sliding_window", "mf_column_permutation"),
    "_assignment": ("max_profit_assignment",),
    "graphs": ("make_color_coding", "mf_tree_dp"),
    "calculus": ("subgradient", "witness_set"),
    "analysis": ("separation_test", "estimate_lipschitz", "sample_point", "random_bank"),
    "templates": ("hermite_template",),
    "pipeline": ("ingest", "ecg_lift", "train_svm_templates", "model_predict",
                 "texture_features", "fit_texture_model", "district_embed",
                 "pca_fit", "lda_fit"),
    "cli": ("main",),
}


def metric_prefix(module: str, func: str) -> str:
    """Metric names may not start with ``_``, so ``_assignment`` reports as
    ``assignment``."""
    return f"{module.lstrip('_')}.{func}"


class _ThreadState(threading.local):
    def __init__(self, registry: list):
        self.stack = []          # child nanoseconds accumulated per open span
        self.acc = {}            # key -> [calls, self_ns]
        registry.append(self.acc)


class Tracer:
    """Counts calls and self time of every boundary function while installed."""

    def __init__(self, package: str = "maxfilt", boundaries: dict = BOUNDARIES):
        self.package = package
        self.boundaries = boundaries
        self._registry = []
        self._local = None
        self._originals = {}     # wrapper -> original function
        self.missing = []

    def _wrap(self, key, orig):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            st = tracer._local
            stack = st.stack
            stack.append(0)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                entry = st.acc.get(key)
                if entry is None:
                    entry = st.acc[key] = [0, 0]
                entry[0] += 1
                entry[1] += dur - child
                if stack:
                    stack[-1] += dur

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", key[1])
        return traced

    def _modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _replace(self, mapping: dict) -> None:
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                new = mapping.get(id(val))
                if new is not None and val is new[0]:
                    setattr(mod, attr, new[1])

    def install(self) -> None:
        """Wrap every boundary function wherever the package refers to it.

        Boundary modules are imported first: a module imported while the
        tracer is installed would keep a reference to a wrapper."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._registry = []
        self._local = _ThreadState(self._registry)
        self.missing = []
        mapping = {}
        for mod_name, funcs in self.boundaries.items():
            try:
                home = importlib.import_module(f"{self.package}.{mod_name}")
            except ImportError:
                home = None
            for func in funcs:
                orig = getattr(home, func, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{func}")
                    continue
                wrapper = self._wrap((mod_name, func), orig)
                self._originals[wrapper] = orig
                mapping[id(orig)] = (orig, wrapper)
        self._replace(mapping)

    def uninstall(self) -> None:
        self._replace({id(w): (w, orig) for w, orig in self._originals.items()})
        self._originals = {}

    def results(self) -> dict:
        """(module, func) -> (calls, self seconds), summed over all threads."""
        out = {(m, f): [0, 0] for m, funcs in self.boundaries.items() for f in funcs}
        for acc in self._registry:
            for key, (calls, self_ns) in acc.items():
                out[key][0] += calls
                out[key][1] += self_ns
        return {key: (calls, self_ns / 1e9) for key, (calls, self_ns) in out.items()}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
