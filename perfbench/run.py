"""Benchmark harness for plumerom: one workload, one seed, one result line.

    python3 perfbench/run.py --workload map-ref --seed 1 --seconds 3 --trace 0

Run from the root of a source checkout. Every step is a fresh process that
starts from the checkout's ``src/`` with the OMP/OpenBLAS/MKL thread variables
removed, so each commit runs the BLAS thread default it ships with. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``. A full record
(environment, per-step wall times, fit health) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.

The workloads are user sessions through the entry points users call: the
``plumerom`` CLI (generate, train, evaluate, robustness) and
``RomModel.load`` + ``rom.predict`` / ``rom.predict_fields`` for queries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402

ROUNDS = 3  # set-ups, evaluations, sweeps and query processes per untraced run
STARTUP_REPEATS = 3
TAIL_PERCENTILE = 95  # the highest percentile 200 queries leave 10 samples beyond
RUN_TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

GENERATE = ["--n", "750", "--grid", "171x51"]

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "map-ref": {
        "generate": GENERATE,
        "setup_train": None,
        "train": ["--method", "map", "--L", "8"],
        "sweep": ["--sizes", "50", "--method", "prior"],
    },
    "serve": {
        "generate": GENERATE,
        "setup_train": ["--method", "prior", "--L", "60"],
        "train": None,
        "sweep": ["--sizes", "50", "--method", "map"],
    },
}


class HarnessError(Exception):
    """The benchmark itself cannot run here (not a failure of the program)."""


class Session:
    """Runs the steps of one workload and keeps their outcome."""

    def __init__(self, root: Path, work: Path, seed: int, deadline: float,
                 traced: bool):
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.steps = []
        self.span_files = []
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def run(self, label, argv, *, counted=True):
        """Run one process; returns its wall time, or None if it failed."""
        cmd = [sys.executable] + argv
        if counted:
            self.attempted += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            code, stderr, wall = None, "not started: run deadline passed", 0.0
            return self._failed(label, code, stderr, wall, counted)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=max(remaining, 1.0))
            code = proc.returncode
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, "timed out"
        wall = time.perf_counter() - t0
        if code != 0:
            return self._failed(label, code, stderr, wall, counted)
        self.steps.append({"step": label, "wall_s": wall, "exit": code})
        return wall

    def _failed(self, label, code, stderr, wall, counted):
        self.steps.append({"step": label, "wall_s": wall, "exit": code})
        if counted:
            self.failed += 1
        print(f"# step {label} failed (exit {code}): {stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None

    def cli(self, label, argv):
        if not self.traced:
            return self.run(label, ["-m", "plumerom.cli"] + argv)
        spans = self.work / f"spans-{len(self.span_files)}.json"
        self.span_files.append(spans)
        return self.run(label, [str(HERE / "child.py"), "--spans", str(spans), "cli"] + argv)

    def query(self, model, dataset, part, parts, seconds):
        out = self.work / f"query-{part}.json"
        argv = [str(HERE / "child.py")]
        if self.traced:
            spans = self.work / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            argv += ["--spans", str(spans)]
        argv += ["query", "--model", str(model), "--dataset", str(dataset),
                 "--seed", str(self.seed), "--part", str(part), "--parts", str(parts),
                 "--seconds", str(seconds), "--out", str(out)]
        if self.run(f"query-{part}", argv, counted=False) is None:
            self.attempted += 1
            self.failed += 1
            return None
        with open(out) as fh:
            result = json.load(fh)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return result

    def check(self, ok: bool, what: str) -> bool:
        """An output check of a command that already counted as attempted."""
        if not ok:
            self.failed += 1
            print(f"# check failed: {what}", file=sys.stderr)
        return ok


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def read_q2_test(path: Path):
    """Global test Q2 from an evaluate output directory; None if unreadable."""
    try:
        with open(path / "summary.json") as fh:
            return json.load(fh)["q2_global"]
    except (OSError, ValueError, KeyError):
        return None


def read_sweep(path: Path) -> list[dict]:
    """Rows of a robustness sweep.csv; empty if unreadable."""
    try:
        with open(path / "sweep.csv") as fh:
            header, *rows = [line.strip().split(",") for line in fh if line.strip()]
        return [{k: float(v) for k, v in zip(header, row)} for row in rows]
    except (OSError, ValueError):
        return []


def fit_health(model: Path) -> dict | None:
    """Per-mode optimizer health from the saved model, no tracing needed."""
    try:
        with open(model / "model.json") as fh:
            diags = [g["diagnostics"] for g in json.load(fh)["gps"]]
    except (OSError, ValueError, KeyError):
        return None
    return {
        "modes": len(diags),
        "iterations": sum(d.get("total_iterations", 0) for d in diags),
        "nonconverged": sum(1 for d in diags if not d.get("converged", True)),
        "jitter_events": sum(d.get("jitter_events", 0) for d in diags),
    }


def run_session(session: Session, config: dict, seconds: float) -> tuple[dict, dict]:
    """The workload's steps; returns end-to-end values and a record.

    Untraced runs go through ROUNDS rounds, each with its own set-up,
    evaluation, sweep and share of the query load; train runs in the first
    round only. Medians over rounds taken at different times keep a slow
    drift of the machine's speed from moving one metric alone.
    """
    work = session.work
    rounds = 1 if session.traced else ROUNDS
    seed = ["--seed", str(session.seed)]
    walls = {"setup": [], "setup_train": [], "evaluate": [], "sweep": []}
    q2, parts = [], []
    values, record = {}, {"rounds": rounds}
    trained = None
    for i in range(rounds):
        dataset, model = work / f"data-{i}", work / f"model-{i}"
        wall = session.cli(f"generate-{i}", ["generate", "--out", str(dataset)]
                           + seed + config["generate"])
        if wall is None:
            return values, record
        if config["setup_train"]:
            train_wall = session.cli(f"setup-train-{i}", [
                "train", "--dataset", str(dataset), "--out", str(model)]
                + seed + config["setup_train"])
            if train_wall is None:
                return values, record
            walls["setup_train"].append(train_wall)
            wall += train_wall
        walls["setup"].append(wall)

        if i == 0 and config["train"]:
            trained = work / "model-trained"
            wall = session.cli("train", ["train", "--dataset", str(dataset), "--out",
                                         str(trained)] + seed + config["train"])
            if wall is None:
                return values, record
            values["train_s"] = wall
        model = trained or model
        if i == 0:
            record["fit_health"] = fit_health(model)

        out = work / f"eval-{i}"
        wall = session.cli(f"evaluate-{i}", ["evaluate", "--model", str(model), "--dataset",
                                             str(dataset), "--split", "test", "--out", str(out)])
        if wall is not None:
            walls["evaluate"].append(wall)
            value = read_q2_test(out)
            if session.check(_finite(value), f"q2_test finite, got {value}"):
                q2.append(value)

        out = work / f"sweep-{i}"
        wall = session.cli(f"robustness-{i}", ["robustness", "--dataset", str(dataset),
                                               "--out", str(out)] + seed + config["sweep"])
        if wall is not None:
            walls["sweep"].append(wall)
            rows = read_sweep(out)
            record["sweep"] = rows
            session.check(bool(rows) and all(_finite(r["q2_global"]) for r in rows),
                          "sweep Q2 finite")

        part = session.query(model, dataset, i, rounds, seconds / rounds)
        if part is not None:
            parts.append(part)
        shutil.rmtree(dataset)
        shutil.rmtree(work / f"model-{i}", ignore_errors=True)

    values["setup_s"] = statistics.median(walls["setup"])
    if not config["train"]:
        values["train_s"] = statistics.median(walls["setup_train"])
    if walls["evaluate"]:
        values["evaluate_s"] = statistics.median(walls["evaluate"])
    if walls["sweep"]:
        values["sweep_s"] = statistics.median(walls["sweep"])
    if q2:
        values["q2_test"] = statistics.median(q2)
    record.update(setup_s_each=walls["setup"], evaluate_s_each=walls["evaluate"],
                  sweep_s_each=walls["sweep"], q2_test_each=q2)
    values.update(pool_queries(parts, record))
    return values, record


def pool_queries(parts: list[dict], record: dict) -> dict:
    """Serving metrics over the pooled samples of a run's query processes."""
    latencies = sorted(t for p in parts for t in p["latencies_s"])
    batches = [t for p in parts for t in p["batch_walls_s"]]
    values = {}
    if parts:
        values["load_s"] = statistics.median(t for p in parts for t in p["load_walls_s"])
        record["environment"] = parts[0]["environment"]
    if latencies:
        rank = math.ceil(TAIL_PERCENTILE / 100 * len(latencies))
        values["predict_p50_ms"] = 1e3 * statistics.median(latencies)
        values["predict_tail_ms"] = 1e3 * latencies[rank - 1]
        record["query"] = {"tail_percentile": TAIL_PERCENTILE, "queries": len(latencies),
                           "tail_samples_beyond": len(latencies) - rank,
                           "batches": len(batches),
                           "loads": sum(len(p["load_walls_s"]) for p in parts)}
    if batches:
        values["batch_points_per_s"] = parts[0]["batch_points"] / statistics.median(batches)
    return values


def benchmark_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path} not found: run from the checkout root")
    with open(path) as fh:
        return json.load(fh)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 workloads: dict = WORKLOADS) -> tuple[dict, dict]:
    """Run one workload; returns the result line's object and the full record."""
    if not (root / "src" / "plumerom" / "__init__.py").is_file():
        raise HarnessError(f"no plumerom sources under {root / 'src'}")
    spec = benchmark_spec(root)
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    config = workloads[workload]

    work = root / ".perfbench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(root, work, seed, time.monotonic() + RUN_TIMEOUT_S, trace)
    try:
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if trace:
            startup = [session.run("startup", ["-m", "plumerom.cli", "--version"])
                       for _ in range(STARTUP_REPEATS)]
            session_record = run_session(session, config, seconds)[1]
            spans = [layers.load_spans(p) for p in session.span_files if p.exists()]
            values = layers.metrics(spans, [s for s in startup if s is not None])
        else:
            values, session_record = run_session(session, config, seconds)
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            values["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        record.update(session_record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_ratio = session.failed / max(session.attempted, 1)
    if trace:
        values["fail_ratio"] = fail_ratio
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs if m["name"] in values}
    record.update(steps=session.steps, attempted=session.attempted,
                  failed=session.failed, fail_ratio=fail_ratio, metrics=metrics)
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    return {
        "correct": session.failed == 0 and not missing,
        "attempted": max(session.attempted, 1),
        "failed": session.failed,
        "metrics": metrics,
    }, record


def summary_lines(result: dict, record: dict) -> list[str]:
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']}"]
    env = record.get("environment")
    if env:
        blas = {k: (v or {}).get("threads") for k, v in env["openblas"].items()}
        lines.append(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
                     f" scipy={env['scipy']} openblas_threads={blas}")
    for step in record["steps"]:
        lines.append(f"# step {step['step']:<14} {step['wall_s']:9.3f} s  exit {step['exit']}")
    if "fit_health" in record:
        lines.append(f"# fit health {record['fit_health']}")
    if "query" in record:
        q = record["query"]
        lines.append(f"# predict_tail_ms is p{q['tail_percentile']} of {q['queries']} queries"
                     f" ({q['tail_samples_beyond']} beyond it); load_s is the median of"
                     f" {q['loads']} loads, the batch rate of {q['batches']} batches")
    for name, m in result["metrics"].items():
        lines.append(f"# {name:<34} {m['value']:.6g} {m['unit']}")
    lines.append(f"# fail_ratio {record['failed']}/{record['attempted']}"
                 f" = {record['fail_ratio']:.4g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="plumerom benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the closed query loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result, record = run_workload(root, args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(result, record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
