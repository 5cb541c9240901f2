"""One measured process of a benchmark workload.

    python3 perfbench/child.py [--spans FILE] cli ARGV...
    python3 perfbench/child.py [--spans FILE] query --model DIR --dataset DIR
                                --seed N [--part K --parts P] --seconds S --out FILE

``cli`` runs ``plumerom.cli.main(ARGV)`` in this process; the harness uses it
only for traced runs (untraced runs start ``python3 -m plumerom.cli``).
``query`` loads a model and serves it: a closed loop of single-point
``rom.predict`` calls from one client over the test split in a seeded order,
then ``rom.predict_fields`` batches over the same points, checking every
output. A run spreads its queries over P such processes at different times.
With ``--spans`` the layer wrappers of ``tracer.py`` are installed and the
spans are written to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402

MIN_QUERIES = 200  # per run, so that p95 has at least 10 samples beyond it
LOAD_MIN_S = 3.0  # per run, of RomModel.load calls; each part's first is fresh
BATCH_MIN_S = 1.0  # per run, of predict_fields batches
MATCH_TOL = 1e-12


def blas_threads() -> dict:
    """Effective thread count of each bundled OpenBLAS, read in this process.

    numpy and scipy ship separate OpenBLAS copies; scipy's Cholesky uses its
    own. Both libraries are already loaded here, so dlopen returns them.
    """
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    found = {}
    for key, package, pattern, symbol in (
        ("numpy", numpy, "numpy.libs/libscipy_openblas64_*.so",
         "scipy_openblas_get_num_threads64_"),
        ("scipy", scipy, "scipy.libs/libscipy_openblas-*.so",
         "scipy_openblas_get_num_threads"),
    ):
        site = os.path.dirname(os.path.dirname(package.__file__))
        paths = sorted(glob.glob(os.path.join(site, pattern)))
        found[key] = None
        if paths:
            getter = getattr(ctypes.CDLL(paths[0]), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[key] = {"library": os.path.basename(paths[0]),
                              "threads": getter()}
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_threads(),
    }


def serve(model_dir, dataset_dir, seed, part, parts, seconds, install=None) -> dict:
    """Part ``part`` of ``parts`` of the query load: loads (the first in a
    fresh process), a share of the closed loop, and batches. Returns raw
    samples; the harness pools the parts of a run."""
    import numpy as np

    from plumerom import rom
    from plumerom.plume import SnapshotSet

    _, _, test = rom.split(SnapshotSet.load(dataset_dir))
    samples = [s.mu for s in test.snapshots]
    units = test.unit_inputs()
    del test
    if install is not None:
        install()

    load_walls = []
    while not load_walls or sum(load_walls) < LOAD_MIN_S / parts:
        model = None  # keep one model in memory, as a server would
        t0 = time.perf_counter()
        model = rom.RomModel.load(model_dir)
        load_walls.append(time.perf_counter() - t0)

    # One seeded cyclic order of the test points; part k starts k/parts of
    # the way round it, so the minimal parts together query each point once.
    n = len(samples)
    order = np.random.default_rng(seed).permutation(n).tolist()
    min_queries = math.ceil(max(MIN_QUERIES, n) / parts)
    position = part * math.ceil(n / parts)
    latencies = []
    first_field = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < min_queries or time.perf_counter() < deadline:
        i = order[(position + attempted) % n]
        attempted += 1
        t0 = time.perf_counter()
        try:
            fld, mean, var = rom.predict(model, samples[i])
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        latencies.append(time.perf_counter() - t0)
        if not (np.isfinite(fld).all() and np.isfinite(mean).all()
                and np.isfinite(var).all()):
            failed += 1
        elif i not in first_field:
            first_field[i] = fld

    batch_walls = []
    while not batch_walls or sum(batch_walls) < BATCH_MIN_S / parts:
        attempted += 1
        t0 = time.perf_counter()
        try:
            fields = rom.predict_fields(model, units)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        batch_walls.append(time.perf_counter() - t0)
        if not np.isfinite(fields).all():
            failed += 1
        elif len(batch_walls) == 1:
            for i, fld in first_field.items():
                if not np.allclose(fld, fields[:, i], rtol=MATCH_TOL, atol=MATCH_TOL):
                    failed += 1

    return {
        "attempted": attempted,
        "failed": failed,
        "load_walls_s": load_walls,
        "latencies_s": latencies,
        "batch_points": int(units.shape[0]),
        "batch_walls_s": batch_walls,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", help="write layer spans to this JSON file")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("query")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True, help="length of this part's loop")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.spans else None
    try:
        if args.mode == "cli":
            from plumerom import cli

            if tracer is None:
                return cli.main(args.argv)
            tracing.install(tracer)
            return tracer.span("cli.main", cli.main, args.argv)
        install = None if tracer is None else (lambda: tracing.install(tracer))
        result = serve(args.model, args.dataset, args.seed, args.part, args.parts,
                       args.seconds, install)
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
