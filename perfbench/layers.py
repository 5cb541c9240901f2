"""Per-layer metrics from the spans of a traced run.

Spans come from several processes (one per CLI command, one for queries);
each process's list keeps parent indices local to it. Self time is a span's
duration minus the durations of its direct children, which nest inside it
because every traced call runs on one thread.
"""

from __future__ import annotations

import json
import statistics


def load_spans(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class SpanIndex:
    def __init__(self, processes):
        self.rows = []  # (name, duration, self time, parent name, info)
        self.overhead_s = 0.0
        for proc in processes:
            spans = proc["spans"]
            children = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    children[parent] += end - start
            for i, (name, start, end, parent, info) in enumerate(spans):
                self.rows.append((name, end - start, end - start - children[i],
                                  spans[parent][0] if parent >= 0 else None, info or {}))
            self.overhead_s += len(spans) * proc["span_cost_s"]

    def select(self, name):
        return [r for r in self.rows if r[0] == name]

    def calls(self, name):
        return len(self.select(name))

    def total(self, name):
        return sum(r[1] for r in self.select(name))

    def self_total(self, name):
        return sum(r[2] for r in self.select(name))

    def p50_ms(self, name):
        durations = [r[1] for r in self.select(name)]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def info_sum(self, name, key):
        return sum(r[4].get(key, 0) for r in self.select(name))


def metrics(processes, startup_walls) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from the spans."""
    ix = SpanIndex(processes)
    factorizations = ix.select("gpr.factorize")
    optimizations = ix.select("gpr.optimize_map")
    iterations = ix.info_sum("gpr.optimize_map", "iterations")
    evals = sum(1 for r in ix.select("gpr.mll_and_grad") if r[3] == "gpr.optimize_map")
    out = {
        "cli.startup_s": statistics.median(startup_walls) if startup_walls else 0.0,
        "cli.overhead_s": ix.self_total("cli.main"),
        "sampling.design.s": ix.total("sampling.design"),
        "plume.generate_field.calls": ix.calls("plume.generate_field"),
        "plume.generate_field.p50_ms": ix.p50_ms("plume.generate_field"),
        "plume.SnapshotSet.matrix.calls": ix.calls("plume.SnapshotSet.matrix"),
        "plume.SnapshotSet.matrix.s": ix.total("plume.SnapshotSet.matrix"),
        "plume.SnapshotSet.load.s": ix.total("plume.SnapshotSet.load"),
        "smx.write_smx.bytes": ix.info_sum("smx.write_smx", "bytes"),
        "smx.write_smx.s": ix.total("smx.write_smx"),
        "smx.read_smx.bytes": ix.info_sum("smx.read_smx", "bytes"),
        "smx.read_smx.s": ix.total("smx.read_smx"),
        "pod.fit.calls": ix.calls("pod.fit"),
        "pod.fit.s": ix.total("pod.fit"),
        "pod.project.s": ix.total("pod.project"),
        "pod.reconstruct.calls": ix.calls("pod.reconstruct"),
        "pod.reconstruct.p50_ms": ix.p50_ms("pod.reconstruct"),
        "priors.estimate_noise.s": ix.total("priors.estimate_noise"),
        "priors.build_priors.calls": ix.calls("priors.build_priors"),
        "gpr.mll_and_grad.calls": ix.calls("gpr.mll_and_grad"),
        "gpr.mll_and_grad.p50_ms": ix.p50_ms("gpr.mll_and_grad"),
        "gpr.mll_and_grad.s": ix.total("gpr.mll_and_grad"),
        "gpr.mll_and_grad.failed": sum(
            1 for r in ix.select("gpr.mll_and_grad") if r[4].get("raised") == "NumericalError"),
        "gpr.optimize_map.calls": len(optimizations),
        "gpr.optimize_map.max_s": max((r[1] for r in optimizations), default=0.0),
        "gpr.optimize_map.iterations": iterations,
        "gpr.optimize_map.evals_per_iter": evals / iterations if iterations else 0.0,
        "gpr.optimize_map.nonconverged": sum(
            1 for r in optimizations if r[4].get("converged") is False),
        "gpr.jitter_events": sum(1 for r in factorizations if r[4]["attempts"] == 2),
        "gpr.fit_gp.calls": ix.calls("gpr.fit_gp"),
        "gpr.fit_gp.s": ix.total("gpr.fit_gp"),
        "gpr.posterior_mean_var.calls": ix.calls("gpr.posterior_mean_var"),
        "gpr.posterior_mean_var.p50_ms": ix.p50_ms("gpr.posterior_mean_var"),
        # Computed, not counted by hardware: n^3/3 flops per Cholesky attempt.
        "gpr.cholesky_gflop": sum(r[4]["n"] ** 3 / 3.0 * r[4]["attempts"]
                                  for r in factorizations) / 1e9,
        "rom.train.s": ix.total("rom.train"),
        "rom.train.self_s": ix.self_total("rom.train"),
        "rom.RomModel.save.s": ix.total("rom.RomModel.save"),
        "rom.RomModel.load.s": ix.total("rom.RomModel.load"),
        "rom.RomModel.load.self_s": ix.self_total("rom.RomModel.load"),
        "rom.predict.p50_ms": ix.p50_ms("rom.predict"),
        "rom.predict_fields.s": ix.total("rom.predict_fields"),
        "rom.evaluate.s": ix.total("rom.evaluate"),
        "rom.robustness_sweep.s": ix.total("rom.robustness_sweep"),
        "rom.robustness_sweep.self_s": ix.self_total("rom.robustness_sweep"),
        "trace.overhead_s": ix.overhead_s,
    }
    return out
