"""In-memory spans around plumerom's layer boundaries, installed from outside.

``install(tracer)`` replaces module and class attributes of the package with
timing wrappers. Every call site in ``src/`` looks these names up at call
time (``pod.fit``, ``gpr._factorize``, ``SnapshotSet.matrix`` ...), so the
package itself is not edited. A span is (name, start, end, parent, info);
``info`` holds the few facts a metric needs (matrix size, bytes, optimizer
iterations). Spans stay in memory and are written once, at process exit.
"""

from __future__ import annotations

import json
import os
import time

# (module attribute path, span name). The module named first is the one whose
# namespace the call sites resolve through: plume.py imports ``design`` by
# name, so the design step is wrapped there.
TARGETS = (
    ("plumerom.plume:design", "sampling.design"),
    ("plumerom.plume:generate_field", "plume.generate_field"),
    ("plumerom.plume:SnapshotSet.matrix", "plume.SnapshotSet.matrix"),
    ("plumerom.plume:SnapshotSet.load", "plume.SnapshotSet.load"),
    ("plumerom.smx:write_smx", "smx.write_smx"),
    ("plumerom.smx:read_smx", "smx.read_smx"),
    ("plumerom.pod:fit", "pod.fit"),
    ("plumerom.pod:project", "pod.project"),
    ("plumerom.pod:reconstruct", "pod.reconstruct"),
    ("plumerom.priors:estimate_noise", "priors.estimate_noise"),
    ("plumerom.priors:build_priors", "priors.build_priors"),
    ("plumerom.gpr:_factorize", "gpr.factorize"),
    ("plumerom.gpr:MllProblem.mll_and_grad", "gpr.mll_and_grad"),
    ("plumerom.gpr:optimize_map", "gpr.optimize_map"),
    ("plumerom.gpr:fit_gp", "gpr.fit_gp"),
    ("plumerom.gpr:posterior_mean_var", "gpr.posterior_mean_var"),
    ("plumerom.rom:train", "rom.train"),
    ("plumerom.rom:RomModel.save", "rom.RomModel.save"),
    ("plumerom.rom:RomModel.load", "rom.RomModel.load"),
    ("plumerom.rom:predict", "rom.predict"),
    ("plumerom.rom:predict_fields", "rom.predict_fields"),
    ("plumerom.rom:evaluate", "rom.evaluate"),
    ("plumerom.rom:robustness_sweep", "rom.robustness_sweep"),
)


def _info(name, args, result, error):
    """Facts recorded beside a span; None when the layer needs none."""
    info = {} if error is None else {"raised": error}
    if name == "gpr.factorize":
        # The jitter path (a non-zero returned jitter, or the error raised
        # after it) means a second Cholesky ran after the first failed.
        info["n"] = args[0].shape[0]
        info["attempts"] = 2 if error is not None or result[1] else 1
    elif error is None and name in ("smx.write_smx", "smx.read_smx"):
        info["bytes"] = os.path.getsize(args[0])
    elif error is None and name == "gpr.optimize_map":
        diag = result[1]
        info["iterations"] = diag["total_iterations"]
        info["converged"] = diag["converged"]
    return info or None


class Tracer:
    """Collects spans of one process; single-threaded call stacks only."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record[4] = _info(name, args, None, type(exc).__name__)
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        record[4] = _info(name, args, result, None)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def span_cost(self, repeats=20000):
        """Measured seconds one span adds to a call, for the overhead estimate."""
        def noop():
            return None
        wrapped = self.wrap("calibration", noop)
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        traced = time.perf_counter() - t0
        del self.spans[-repeats:]
        return max(traced - bare, 0.0) / repeats

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "span_cost_s": self.span_cost()}, fh)


def install(tracer):
    """Replace every target attribute with a wrapper that records a span."""
    import importlib

    for target, name in TARGETS:
        module_name, attr_path = target.split(":")
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw))
