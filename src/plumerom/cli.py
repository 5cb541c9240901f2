"""Command-line front end: generate, train, predict, evaluate, robustness.

Every artifact directory receives a ``run_config.json`` embedding the fully
resolved configuration and tool version, so any output can be reproduced
from its own manifest. Exit codes classify failures: 0 success, 2 config
error, 3 data error, 4 numerical failure.

BLAS threads: a ``plumerom`` process runs its BLAS with one thread unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is
already set; set one of them to override, e.g.
``OPENBLAS_NUM_THREADS=2 plumerom train ...``. The default is measured: on a
2-vCPU VM, ``train --method map --L 8`` on the 472-point reference split
took 3.5-4.5 s with one thread and 7.7-8.7 s with two. It is applied when
this module is imported, before numpy, since the BLAS reads the variables
once, when it loads; ``run_config.json`` records the count and where it
came from under ``blas_threads``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_BLAS_THREADS = 1


def _apply_blas_threads() -> dict:
    """Set the default BLAS thread count unless the user chose one.

    Returns the count and its source for ``run_config.json``. A user-set
    variable always wins. When numpy was imported before this module, its
    BLAS already chose a count, so the environment is left alone.
    """
    for name in THREAD_VARIABLES:
        if name in os.environ:
            value = os.environ[name]
            return {"count": int(value) if value.isdigit() else None, "source": name}
    if "numpy" in sys.modules:
        return {"count": None, "source": "BLAS default (numpy imported first)"}
    for name in THREAD_VARIABLES:
        os.environ[name] = str(DEFAULT_BLAS_THREADS)
    return {"count": DEFAULT_BLAS_THREADS, "source": "default"}


BLAS_THREADS = _apply_blas_threads()

import numpy as np  # noqa: E402  (after the BLAS thread default is set)

from . import __version__, plume, rom, smx  # noqa: E402
from .errors import ConfigError, DataError, NumericalError  # noqa: E402
from .plume import DEFAULT_NOISE_AMPLITUDE, T_AVG_PERIODS, Grid, SnapshotSet  # noqa: E402
from .sampling import ParameterSpace, to_physical, to_unit  # noqa: E402

DEFAULTS = {
    "n": 750,
    "grid": "171x51",
    "channel": "mean_concentration",
    "seed": 0,
    "L": 100,
    "method": "map",
    "split": "test",
    "sizes": "50,100",
    "noise_amplitude": DEFAULT_NOISE_AMPLITUDE,
    "t_avg_periods": T_AVG_PERIODS,
}
# A config file may also be a run_config.json, whose "config" holds the
# provenance keys the commands write beside the settings.
KNOWN_CONFIG_KEYS = set(DEFAULTS) | {"space", "dataset", "model", "mu", "unit"}


def _resolve(args: argparse.Namespace, keys) -> dict:
    """Defaults < config file < explicit flags."""
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        # accept emitted run_config.json
        config = loaded.get("config", loaded) if isinstance(loaded, dict) else loaded
        if not isinstance(config, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(config) - KNOWN_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"config {args.config} has unknown keys: {', '.join(unknown)}")
    resolved = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, DEFAULTS.get(key))
        resolved[key] = value
    if "space" in config:
        resolved["space"] = config["space"]
    return resolved


def _parse_grid(spec) -> Grid:
    if isinstance(spec, dict):
        return Grid.from_dict(spec)
    try:
        nx, nz = (int(v) for v in str(spec).lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"grid must look like '171x51', got {spec!r}") from exc
    return Grid(nx=nx, nz=nz)


def _parse_space(resolved: dict) -> ParameterSpace:
    if "space" in resolved and resolved["space"]:
        return ParameterSpace.from_dict(resolved["space"])
    return ParameterSpace()


def _prepare_out(path, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise DataError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_config(out: Path, command: str, resolved: dict) -> None:
    payload = {
        "tool_version": __version__,
        "blas_threads": BLAS_THREADS,
        "command": command,
        "config": resolved,
    }
    with open(out / "run_config.json", "w") as fh:
        json.dump(payload, fh, indent=1)


def cmd_generate(args) -> int:
    keys = ("n", "grid", "channel", "seed", "noise_amplitude", "t_avg_periods")
    resolved = _resolve(args, keys)
    grid = _parse_grid(resolved["grid"])
    space = _parse_space(resolved)
    resolved["grid"] = grid.to_dict()
    resolved["space"] = space.to_dict()
    out = _prepare_out(args.out, args.force)
    dataset = plume.generate_dataset(
        space,
        int(resolved["n"]),
        grid,
        resolved["channel"],
        int(resolved["seed"]),
        noise_amplitude=float(resolved["noise_amplitude"]),
        t_avg_periods=float(resolved["t_avg_periods"]),
    )
    dataset.save(out)
    _write_run_config(out, "generate", resolved)
    print(f"wrote {len(dataset)} snapshots (+{len(dataset)} half-window) to {out}")
    return 0


def cmd_train(args) -> int:
    keys = ("L", "method", "seed")
    resolved = _resolve(args, keys)
    dataset = SnapshotSet.load(args.dataset)
    train_set, calib_set, _ = rom.split(dataset)
    out = _prepare_out(args.out, args.force)
    t0 = time.perf_counter()
    model = rom.train(
        train_set,
        calib_set,
        int(resolved["L"]),
        resolved["method"],
        int(resolved["seed"]),
    )
    wall = time.perf_counter() - t0
    model.save(out)
    resolved["dataset"] = str(args.dataset)
    _write_run_config(out, "train", resolved)

    rows = model.training_summary()
    total_iters = sum(r["iterations"] for r in rows)
    print(f"trained {model.L} modes with method={model.method} "
          f"(total optimizer iterations {total_iters}, training time {wall:.1f}s)")
    print("mode  noise_var  signal_var  l_u_zc   l_z0     l_x_src  l_z_src  s2/rho   iters")
    for r in rows:
        ls = r["lengthscales"]
        print(f"{r['mode']:>4}  {r['noise_var']:<9.3g}  {r['signal_var']:<10.3g} "
              f"{ls[0]:<8.3g} {ls[1]:<8.3g} {ls[2]:<8.3g} {ls[3]:<8.3g} "
              f"{r['noise_to_signal']:<8.3g} {r['iterations']}")
    return 0


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def cmd_predict(args) -> int:
    model = rom.RomModel.load(args.model)
    if (args.mu is None) == (args.unit is None):
        raise ConfigError("provide exactly one of --mu or --unit")
    # A point is its unit-cube row; rom.predict validates it.
    if args.unit is not None:
        unit = _parse_point(args.unit)
    else:
        unit = to_unit(_parse_point(args.mu), model.space)
    fld, coeff_mean, coeff_var = rom.predict(model, unit)
    physical = to_physical(unit, model.space)
    out = _prepare_out(args.out, args.force)
    smx.write_smx(out / "field.smx", fld[:, None], model.grid.nx, model.grid.nz)
    with open(out / "coefficients.csv", "w", newline="") as fh:
        fh.write("mode,mean,variance\n")
        for l in range(model.L):
            fh.write(f"{l + 1},{coeff_mean[l]!r},{coeff_var[l]!r}\n")
    _write_run_config(out, "predict", {
        "model": str(args.model),
        "mu": physical.tolist(),
        "unit": unit.tolist(),
    })
    print(f"predicted field written to {out} "
          f"(mu = {np.array2string(physical, precision=4)})")
    return 0


def cmd_evaluate(args) -> int:
    model = rom.RomModel.load(args.model)
    dataset = SnapshotSet.load(args.dataset)
    train_set, _, test_set = rom.split(dataset)
    resolved = _resolve(args, ("split",))
    tag = resolved["split"]
    if tag not in ("train", "test"):
        raise ConfigError(f"--split must be train or test, got {tag!r}")
    eval_set = train_set if tag == "train" else test_set
    report = rom.evaluate(model, eval_set, tag=tag)
    out = _prepare_out(args.out, args.force)
    report.save(out, model.grid.nx, model.grid.nz)
    _write_run_config(out, "evaluate", {
        "model": str(args.model),
        "dataset": str(args.dataset),
        "split": tag,
    })
    print(f"{tag} global Q2 = {report.q2_global:.4f} over {report.n_samples} snapshots")
    return 0


def cmd_robustness(args) -> int:
    keys = ("sizes", "method", "seed")
    resolved = _resolve(args, keys)
    sizes = [int(v) for v in str(resolved["sizes"]).split(",") if v]
    if not sizes:
        raise ConfigError("--sizes must list at least one training size")
    dataset = SnapshotSet.load(args.dataset)
    out = _prepare_out(args.out, args.force)
    results = rom.robustness_sweep(
        dataset, sizes, method=resolved["method"], seed=int(resolved["seed"]),
    )
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write("size,L,q2_global,runtime\n")
        for row in results:
            fh.write(f"{row['size']},{row['L']},{row['q2_global']!r},"
                     f"{row['runtime']!r}\n")
    with open(out / "q2_by_L.csv", "w", newline="") as fh:
        fh.write("size,L,q2_global\n")
        for row in results:
            for l, value in sorted(row["q2_by_L"].items()):
                fh.write(f"{row['size']},{l},{value!r}\n")
    for row in results:
        path = out / f"q2_per_mode_{row['size']}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("mode,q2\n")
            for l, value in enumerate(row["q2_per_mode"], start=1):
                fh.write(f"{l},{'' if np.isnan(value) else repr(float(value))}\n")
    resolved["dataset"] = str(args.dataset)
    _write_run_config(out, "robustness", resolved)
    for row in results:
        print(f"size {row['size']:>4}: L = {row['L']:>3}, "
              f"global Q2 = {row['q2_global']:.4f} ({row['runtime']:.1f}s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumerom",
        description="POD/GPR reduced-order modeling of plume dispersion fields",
        epilog="BLAS threads: each plumerom process uses one BLAS thread unless "
        "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set; set "
        "one of them to override, e.g. OPENBLAS_NUM_THREADS=2 plumerom train "
        "... . run_config.json records the count used under blas_threads.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags still win)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true",
                       help="overwrite a non-empty output directory")

    p = sub.add_parser("generate", help="generate a surrogate snapshot dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=None, help="number of snapshots")
    p.add_argument("--grid", default=None, help="NXxNZ, e.g. 171x51")
    p.add_argument("--channel", default=None,
                   choices=["mean_concentration", "vertical_flux"])
    p.add_argument("--noise-amplitude", dest="noise_amplitude", type=float,
                   default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a reduced-order model")
    add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--L", type=int, default=None, help="retained POD modes")
    p.add_argument("--method", default=None, choices=["mll", "map", "prior"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a field at one parameter point")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mu", help="physical point: u_zc,z0,x_src,z_src")
    p.add_argument("--unit", help="unit-cube point: u1,u2,u3,u4")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model on a dataset split")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default=None, choices=["train", "test"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("robustness", help="training-size robustness sweep")
    add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sizes", default=None, help="comma list, e.g. 50,100")
    p.add_argument("--method", default=None, choices=["mll", "map", "prior"])
    p.set_defaults(func=cmd_robustness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
