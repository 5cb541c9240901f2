"""End-to-end reduced-order model: split, train, predict, evaluate.

A trained model couples one POD basis with one GP per retained mode, all
fitted on the training split. Hyperparameters come from multi-restart MLL,
from single-descent MAP informed by priors calibrated on the held-out
calibration split, or are frozen at the prior modes (baseline). Performance
is scored with explained-variance Q2 criteria: per mode, per grid node, and
globally (the local scores weighted by the evaluation set's node variance).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gpr, pod, priors, smx
from .errors import ConfigError, DataError
from .plume import Grid, SnapshotSet
from .sampling import ParameterSpace, check_unit, to_physical

DEFAULT_FRACTIONS = (0.63, 0.07, 0.30)
METHODS = ("mll", "map", "prior")
MODEL_FORMAT = "plumerom-model-2"


def _subset_hash(snapshot_set: SnapshotSet) -> str:
    ids = ",".join(map(str, snapshot_set.index.tolist()))
    return hashlib.sha256(ids.encode()).hexdigest()[:16]


def split(
    dataset: SnapshotSet,
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
) -> tuple[SnapshotSet, SnapshotSet, SnapshotSet]:
    """Contiguous train/calibration/test split in sequence order.

    Sizes: floor for train and test, remainder to calibration, so the default
    fractions reproduce (472, 53, 225) at N = 750. Any empty subset is an
    error.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    n = len(dataset)
    n_train = int(np.floor(fractions[0] * n))
    n_test = int(np.floor(fractions[2] * n))
    n_calib = n - n_train - n_test
    if min(n_train, n_calib, n_test) < 1:
        raise DataError(
            f"split of {n} snapshots gives empty subset: "
            f"({n_train}, {n_calib}, {n_test})"
        )
    train = dataset.subset(range(n_train))
    calib = dataset.subset(range(n_train, n_train + n_calib))
    test = dataset.subset(range(n_train + n_calib, n))
    for subset_set, tag, start in (
        (train, "train", 0),
        (calib, "calibration", n_train),
        (test, "test", n_train + n_calib),
    ):
        subset_set.manifest["subset"] = {
            "tag": tag,
            "position": [start, start + len(subset_set)],
            "hash": _subset_hash(subset_set),
        }
    return train, calib, test


@dataclass
class RomModel:
    """Deployable reduced-order model and its provenance."""

    basis: pod.ReducedBasis
    gps: list[gpr.GpModel]
    method: str
    normalization: dict
    split_manifest: dict
    priors_audit: dict | None
    space: ParameterSpace
    grid: Grid
    channel: str
    config: dict = field(default_factory=dict)

    @property
    def L(self) -> int:
        return self.basis.L

    def training_summary(self) -> list[dict]:
        """Per-mode hyperparameters and optimizer cost."""
        rows = []
        for l, gp in enumerate(self.gps, start=1):
            theta = gp.theta
            rows.append(
                {
                    "mode": l,
                    "noise_var": theta.noise_var,
                    "signal_var": theta.signal_var,
                    "lengthscales": list(theta.lengthscales),
                    "noise_to_signal": theta.noise_var / theta.signal_var,
                    "iterations": gp.diagnostics.get("total_iterations", 0),
                }
            )
        return rows

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.basis.save(directory / "basis")
        # One (n, d + 2L) table: inputs, then every mode's targets, then alphas.
        inputs = self.gps[0].inputs
        table = np.hstack([inputs, np.array([gp.targets for gp in self.gps]).T,
                           np.array([gp.alpha for gp in self.gps]).T])
        smx.write_smx(directory / "gps.smx", table, inputs.shape[0], 1)
        gps_meta = []
        for gp in self.gps:
            theta = gp.theta.to_dict()
            gps_meta.append(
                {
                    "theta": theta,
                    "theta_checksum": _theta_checksum(theta),
                    "jitter": gp.jitter,
                    "diagnostics": gp.diagnostics,
                }
            )
        meta = {
            "format": MODEL_FORMAT,
            "method": self.method,
            "normalization": self.normalization,
            "split_manifest": self.split_manifest,
            "priors_audit": self.priors_audit,
            "space": self.space.to_dict(),
            "grid": self.grid.to_dict(),
            "channel": self.channel,
            "config": self.config,
            "gps": gps_meta,
        }
        with open(directory / "model.json", "w") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def load(cls, directory) -> "RomModel":
        directory = Path(directory)
        with open(directory / "model.json") as fh:
            meta = json.load(fh)
        if meta.get("format") != MODEL_FORMAT:
            raise DataError(f"{directory}: model format {meta.get('format')!r}, "
                            f"expected {MODEL_FORMAT!r}")
        basis = pod.ReducedBasis.load(directory / "basis")
        table, _, nz = smx.read_smx(directory / "gps.smx")
        smx.require_finite(table, directory / "gps.smx")
        n_gps = len(meta["gps"])
        dim = table.shape[1] - 2 * n_gps
        if nz != 1 or dim < 1:
            raise DataError(f"{directory}/gps.smx: not an (n, d + 2*{n_gps}) table")
        inputs = np.ascontiguousarray(table[:, :dim])
        targets, alphas = table[:, dim:dim + n_gps], table[:, dim + n_gps:]
        gps = []
        for l, gp_meta in enumerate(meta["gps"]):
            if _theta_checksum(gp_meta["theta"]) != gp_meta["theta_checksum"]:
                raise DataError(f"mode {l + 1}: hyperparameter checksum mismatch")
            theta = gpr.Hyperparameters.from_dict(gp_meta["theta"])
            model = gpr.fit_gp(inputs, targets[:, l], theta,
                               diagnostics=gp_meta["diagnostics"])
            if not np.allclose(model.alpha, alphas[:, l], rtol=1e-6, atol=1e-8):
                raise DataError(f"mode {l + 1}: refactorized alpha disagrees with file")
            gps.append(model)
        return cls(
            basis=basis,
            gps=gps,
            method=meta["method"],
            normalization=meta["normalization"],
            split_manifest=meta["split_manifest"],
            priors_audit=meta["priors_audit"],
            space=ParameterSpace.from_dict(meta["space"]),
            grid=Grid.from_dict(meta["grid"]),
            channel=meta["channel"],
            config=meta.get("config", {}),
        )


def _theta_checksum(theta_dict: dict) -> str:
    payload = json.dumps(theta_dict, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _train_one_mode(method, inputs, targets, prior_set, seed, l):
    if method == "mll":
        theta, diag = gpr.optimize_mll(
            inputs, targets, n_restarts=15, seed=np.random.SeedSequence((seed, l)),
        )
    elif method == "map":
        theta, diag = gpr.optimize_map(inputs, targets, prior_set)
    elif method == "prior":
        theta = prior_set.start_point()
        diag = {"method": "prior", "total_iterations": 0, "nfev": 0,
                "failed_evaluations": 0, "best_value": None, "converged": True,
                "jitter_events": 0}
    else:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    return gpr.fit_gp(inputs, targets, theta, diagnostics=diag)


def train(
    train_set: SnapshotSet,
    calib_set: SnapshotSet | None,
    L: int,
    method: str = "map",
    seed: int = 0,
    *,
    gp_on_union: bool = False,
) -> RomModel:
    """Fit the POD basis on the training split and one GP per retained mode.

    ``map`` and ``prior`` need a calibration split with half-window
    companions to set the priors. With ``gp_on_union`` the GP regressions use
    train + calibration points jointly (small-dataset regime) while the basis
    still comes from the training split alone.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in ("map", "prior") and calib_set is None:
        raise ConfigError(f"method {method!r} requires a calibration split")

    basis = pod.fit(train_set, L)
    inputs = train_set.unit_inputs()
    targets = pod.project(basis, train_set.matrix())
    if gp_on_union and calib_set is not None:
        inputs = np.vstack([inputs, calib_set.unit_inputs()])
        targets = np.hstack([targets, pod.project(basis, calib_set.matrix())])

    priors_audit = None
    prior_sets: list[gpr.PriorSet | None] = [None] * L
    if method in ("map", "prior"):
        estimate = priors.estimate_noise(basis, calib_set.matrix(), calib_set.half_matrix())
        fit = (estimate.fit_prefactor, estimate.fit_exponent)
        prior_sets = [priors.build_priors(l, fit) for l in range(1, L + 1)]
        priors_audit = {
            "noise_estimate": estimate.to_dict(),
            "per_mode": [p.to_dict() for p in prior_sets],
        }

    gps = [_train_one_mode(method, inputs, targets[l], prior_sets[l], seed, l)
           for l in range(L)]

    split_manifest = {
        "train": train_set.manifest.get("subset", {"hash": _subset_hash(train_set)}),
        "calibration": None if calib_set is None
        else calib_set.manifest.get("subset", {"hash": _subset_hash(calib_set)}),
        "gp_on_union": gp_on_union,
        "n_train": len(train_set),
        "n_calibration": None if calib_set is None else len(calib_set),
    }
    normalization = {
        "u_tau_ref": train_set.manifest.get("u_tau_ref"),
        "H": 1.0,
        "Q_s": 1.0,
    }
    space = ParameterSpace.from_dict(train_set.manifest["space"])
    return RomModel(
        basis=basis,
        gps=gps,
        method=method,
        normalization=normalization,
        split_manifest=split_manifest,
        priors_audit=priors_audit,
        space=space,
        grid=train_set.grid,
        channel=train_set.channel,
        config={"L": L, "seed": seed, "method": method},
    )


def predict(model: RomModel, unit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field prediction at one unit-cube point.

    Points outside the unit cube or with their source inside the exclusion
    box are refused: the model is only validated over the sampled region.
    """
    physical = to_physical(unit, model.space)
    if model.space.in_exclusion_box(*physical[2:]):
        raise ConfigError(f"source ({physical[2]}, {physical[3]}) inside the exclusion box")
    coeff_mean, coeff_var = _posterior_coefficients(model, np.reshape(unit, (1, -1)))
    fld = pod.reconstruct(model.basis, coeff_mean[:, 0])
    return fld, coeff_mean[:, 0], coeff_var[:, 0]


def _posterior_coefficients(model: RomModel, unit_points: np.ndarray):
    """Stacked per-mode posterior means/variances, shape (L, M).

    Every query point enters the GPs here, so here it is checked.
    """
    unit_points = check_unit(unit_points, model.space)
    means = np.empty((model.L, unit_points.shape[0]))
    variances = np.empty_like(means)
    for l, gp in enumerate(model.gps):
        means[l], variances[l] = gpr.posterior_mean_var(gp, unit_points)
    return means, variances


def predict_fields(model: RomModel, unit_points: np.ndarray) -> np.ndarray:
    """Predicted fields for a batch of unit-cube points, shape (n_nodes, M)."""
    coeff_mean, _ = _posterior_coefficients(model, unit_points)
    return pod.reconstruct(model.basis, coeff_mean)


def q2_scores(true_values: np.ndarray, predicted: np.ndarray, axis: int = 1) -> np.ndarray:
    """Explained-variance scores 1 - |err|^2 / |centered|^2 along ``axis``.

    Entries whose centered-variance denominator falls below
    ``pod.VARIANCE_MASK_RTOL`` times the largest denominator come back NaN
    (undefined, not zero).
    """
    true_values = np.asarray(true_values, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    residual = np.sum((true_values - predicted) ** 2, axis=axis)
    denom, defined = _q2_denominators(true_values, axis)
    out = np.full(np.shape(denom), np.nan)
    out[defined] = 1.0 - residual[defined] / denom[defined]
    return out


def _q2_denominators(true_values: np.ndarray, axis: int = 1):
    """Centered sums of squares along ``axis`` and the mask of defined entries."""
    centered = true_values - true_values.mean(axis=axis, keepdims=True)
    denom = np.sum(centered**2, axis=axis)
    defined = denom > pod.VARIANCE_MASK_RTOL * (denom.max() if denom.size else 0.0)
    return denom, defined


def q2_global(q2_local_values: np.ndarray, node_variance: np.ndarray) -> float:
    """Variance-weighted mean of the defined local Q2 entries."""
    q2_local_values = np.asarray(q2_local_values, dtype=float)
    node_variance = np.asarray(node_variance, dtype=float)
    defined = ~np.isnan(q2_local_values)
    weights = node_variance[defined]
    total = weights.sum()
    if total <= 0.0:
        raise DataError("no variance on unmasked nodes")
    return float(np.sum(weights * q2_local_values[defined]) / total)


def node_variance(matrix: np.ndarray) -> np.ndarray:
    """Unbiased per-node variance over the snapshot columns."""
    return np.asarray(matrix, dtype=float).var(axis=1, ddof=1)


@dataclass
class EvaluationReport:
    q2_per_mode: np.ndarray
    q2_local: np.ndarray
    q2_global: float
    dataset_tag: str
    split_hash: str
    n_samples: int
    node_weights: np.ndarray

    def summary_dict(self) -> dict:
        return {
            "dataset_tag": self.dataset_tag,
            "split_hash": self.split_hash,
            "n_samples": self.n_samples,
            "q2_global": self.q2_global,
            "q2_per_mode": [None if np.isnan(v) else float(v) for v in self.q2_per_mode],
        }

    def save(self, directory, nx: int, nz: int) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "q2_per_mode.csv", "w", newline="") as fh:
            fh.write("mode,q2\n")
            for l, value in enumerate(self.q2_per_mode, start=1):
                fh.write(f"{l},{'' if np.isnan(value) else repr(float(value))}\n")
        smx.write_smx(directory / "q2_local.smx", self.q2_local[:, None], nx, nz)
        smx.write_smx(directory / "weights.smx", self.node_weights[:, None], nx, nz)
        with open(directory / "summary.json", "w") as fh:
            json.dump(self.summary_dict(), fh, indent=1)


def evaluate(model: RomModel, eval_set: SnapshotSet, tag: str = "test") -> EvaluationReport:
    """Full Q2 report of the model on an evaluation split.

    Weights and denominators both come from the evaluation ensemble, so each
    node's weighted contribution stays bounded even where the evaluation
    variance nearly vanishes. Guards against train/test leakage: evaluating a
    split whose hash equals the training split's under the ``test`` tag is an
    error.
    """
    eval_hash = eval_set.manifest.get("subset", {}).get("hash", _subset_hash(eval_set))
    train_hash = model.split_manifest.get("train", {}).get("hash")
    if tag == "test" and train_hash is not None and eval_hash == train_hash:
        raise DataError("evaluation split matches the training split (leakage)")
    matrix = eval_set.matrix()
    coeff, _ = _posterior_coefficients(model, eval_set.unit_inputs())
    per_mode = q2_scores(pod.project(model.basis, matrix), coeff)
    local = q2_scores(matrix, pod.reconstruct(model.basis, coeff))
    weights = node_variance(matrix)
    return EvaluationReport(
        q2_per_mode=per_mode,
        q2_local=local,
        q2_global=q2_global(local, weights),
        dataset_tag=tag,
        split_hash=eval_hash,
        n_samples=len(eval_set),
        node_weights=weights,
    )


def robustness_sweep(
    dataset: SnapshotSet,
    train_sizes,
    method: str = "map",
    seed: int = 0,
) -> list[dict]:
    """Accuracy versus training-set size, on the fixed full-split test set.

    For each size the first ``size`` training snapshots are kept; 90% of them
    build the POD basis, the remaining 10% calibrate priors, and the GPs are
    fitted on all of them. Sizes 10-15 leave a single calibration pair, whose
    noise estimate is defined but noisy. The model keeps the largest
    admissible L, n_pod - 1, and each row reports its test Q2; ``q2_by_L``
    scores every truncation below it. L is never chosen on the test set.
    """
    full_train, _, test = split(dataset)
    results = []
    for size in train_sizes:
        if size < 10:
            raise ConfigError("robustness sweep needs train sizes >= 10")
        if size > len(full_train):
            raise ConfigError(f"size {size} exceeds training split {len(full_train)}")
        t0 = time.perf_counter()
        reduced = full_train.subset(range(size))
        n_pod = int(round(0.9 * size))
        pod_set = reduced.subset(range(n_pod))
        calib_set = reduced.subset(range(n_pod, size))
        pod_set.manifest["subset"] = {"tag": f"sweep-{size}-pod",
                                      "hash": _subset_hash(pod_set)}
        calib_set.manifest["subset"] = {"tag": f"sweep-{size}-calib",
                                        "hash": _subset_hash(calib_set)}
        l_max = n_pod - 1
        model = train(pod_set, calib_set, l_max, method, seed, gp_on_union=True)
        coeff_mean, _ = _posterior_coefficients(model, test.unit_inputs())
        per_mode = q2_scores(pod.project(model.basis, test.matrix()), coeff_mean)
        q2_all = _q2_by_truncation(model.basis, coeff_mean, test.matrix())
        results.append(
            {
                "size": size,
                "L": l_max,
                "q2_global": q2_all[-1],
                "q2_by_L": dict(enumerate(q2_all, start=1)),
                "q2_per_mode": per_mode,
                "runtime": time.perf_counter() - t0,
            }
        )
    return results


def _q2_by_truncation(basis: pod.ReducedBasis, coeff: np.ndarray,
                      true_matrix: np.ndarray) -> list[float]:
    """Global Q2 of the reconstruction truncated at every l = 1..L, in order.

    With the evaluation node variances D_i / (M - 1) as weights, the global
    Q2 is 1 - sum R_i / sum D_i over the defined nodes (R_i residual, D_i
    centered sum of squares). The modes are orthonormal, so over all nodes
    sum_i R_i(l) = |T0|^2 - 2 sum_{k<=l} s_k <P_k, C_k> + sum_{k<=l} s_k^2 |C_k|^2,
    with T0 the true matrix minus the mean field, P = Psi^T T0, C the
    coefficients and s_k = sqrt(lambda_k). The masked nodes' residuals are
    subtracted on their own rows.
    """
    denom, defined = _q2_denominators(true_matrix)
    total_denom = denom[defined].sum()
    if total_denom <= 0.0:
        raise DataError("no variance on unmasked nodes")
    L = coeff.shape[0]
    s = np.sqrt(basis.eigenvalues[:L])
    modes = basis.modes[:, :L]
    t0 = true_matrix - basis.mean_field[:, None]
    p = modes.T @ t0
    per_mode = s * (s * np.einsum("km,km->k", coeff, coeff)
                    - 2.0 * np.einsum("km,km->k", p, coeff))
    residual = np.einsum("im,im->", t0, t0) + np.cumsum(per_mode)
    masked = ~defined
    masked_error = t0[masked]
    masked_weighted = modes[masked] * s
    for k in range(L):
        masked_error -= np.outer(masked_weighted[:, k], coeff[k])
        residual[k] -= np.einsum("im,im->", masked_error, masked_error)
    return (1.0 - residual / total_denom).tolist()
