"""Calibration of hyperparameter priors from the reduced basis.

The noise prior comes from comparing full-window and half-window reduced
coefficients on a held-out calibration subset: the per-mode difference
variance is fitted by a power law in the mode index, whose value sets the
Gamma mode for each mode's noise variance. Length-scale priors encode that
higher modes carry finer source-position structure (mode 1/l for the source
coordinates, constant 1 for the inflow parameters); the signal variance gets
a Gaussian prior centered on the whitened-coefficient variance of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .gpr import GammaPrior, GaussianPrior, PriorSet

NOISE_PRIOR_MEAN = 0.5        # middle of the admissible noise range [0, 1]
NOISE_MODE_CAP = 0.45         # keeps the Gamma mode strictly below its mean
SIGNAL_PRIOR_MEAN = 1.0
SIGNAL_PRIOR_VARIANCE = 0.03
LENGTHSCALE_PRIOR_VARIANCE = 1.0


@dataclass
class NoiseEstimate:
    """Per-mode noise variances and their power-law fit s2(l) ~ a * l**b."""

    per_mode: np.ndarray
    fit_prefactor: float
    fit_exponent: float
    mode_capped: bool = False

    def to_dict(self) -> dict:
        return {
            "per_mode": self.per_mode.tolist(),
            "fit_prefactor": self.fit_prefactor,
            "fit_exponent": self.fit_exponent,
            "mode_capped": self.mode_capped,
        }


def gamma_from_mode_mean(mode: float, mean: float) -> GammaPrior:
    """Gamma with given mode (alpha-1)/beta and mean alpha/beta."""
    if not 0.0 < mode < mean:
        raise ConfigError(f"need 0 < mode < mean, got mode={mode}, mean={mean}")
    rate = 1.0 / (mean - mode)
    return GammaPrior(shape=mean * rate, rate=rate)


def gamma_from_mode_variance(mode: float, variance: float) -> GammaPrior:
    """Gamma with given mode (alpha-1)/beta and variance alpha/beta^2."""
    if mode <= 0.0 or variance <= 0.0:
        raise ConfigError("mode and variance must be positive")
    rate = (mode + math.sqrt(mode**2 + 4.0 * variance)) / (2.0 * variance)
    return GammaPrior(shape=variance * rate**2, rate=rate)


def noise_variances(basis, full_matrix, half_matrix) -> np.ndarray:
    """Per-mode noise variance from paired full/half-window snapshots.

    s2_l = (1/2N) * sum_n (k_l(n) - k_l_50%(n))^2, both coefficient sets
    projected onto the same basis. ``full_matrix``/``half_matrix`` are
    (n_nodes, N) arrays that pair 1:1 in order. Any N >= 1 is accepted
    (N = 1 gives diff**2 / 2 per mode); an empty calibration set raises
    ``DataError``.
    """
    from . import pod

    full_matrix = np.asarray(full_matrix, dtype=float)
    half_matrix = np.asarray(half_matrix, dtype=float)
    if full_matrix.shape != half_matrix.shape:
        raise DataError(
            f"full/half shapes differ: {full_matrix.shape} vs {half_matrix.shape}"
        )
    n = full_matrix.shape[1]
    if n < 1:
        raise DataError("noise estimation needs at least 1 snapshot pair")
    diff = pod.project(basis, full_matrix) - pod.project(basis, half_matrix)
    return np.sum(diff**2, axis=1) / (2.0 * n)


def fit_noise_power_law(per_mode) -> tuple[float, float]:
    """Least-squares fit of log s2_l against log l; returns (prefactor, exponent)."""
    per_mode = np.asarray(per_mode, dtype=float)
    modes = np.arange(1, per_mode.size + 1)
    positive = per_mode > 0.0
    if positive.sum() < 3:
        raise DataError("power-law fit needs at least 3 positive noise estimates")
    coeffs = np.polyfit(np.log(modes[positive]), np.log(per_mode[positive]), 1)
    return float(np.exp(coeffs[1])), float(coeffs[0])


def estimate_noise(basis, full_matrix, half_matrix) -> NoiseEstimate:
    """Eq.-style noise estimator plus its power-law fit, from N >= 1 pairs.

    The fit is NaN when fewer than 3 modes have positive estimates (e.g. the
    degenerate half == full case); downstream prior construction refuses it.
    """
    per_mode = noise_variances(basis, full_matrix, half_matrix)
    if (per_mode > 0.0).sum() >= 3:
        prefactor, exponent = fit_noise_power_law(per_mode)
    else:
        prefactor, exponent = float("nan"), float("nan")
    capped = bool(
        np.isfinite(prefactor)
        and any(
            prefactor * l**exponent > NOISE_MODE_CAP
            for l in range(1, per_mode.size + 1)
        )
    )
    return NoiseEstimate(
        per_mode=per_mode,
        fit_prefactor=prefactor,
        fit_exponent=exponent,
        mode_capped=capped,
    )


def build_priors(l: int, noise_fit: tuple[float, float]) -> PriorSet:
    """Priors for mode ``l`` (1-based) given the noise power law (a, b).

    - noise: Gamma with mode min(a*l^b, 0.45) and mean 0.5;
    - signal: Gaussian(1, 0.03);
    - source-coordinate length-scales: Gamma with mode 1/l, variance 1;
    - inflow length-scales: Gamma with mode 1, variance 1.
    """
    if l < 1:
        raise ConfigError("mode index must be >= 1")
    a, b = noise_fit
    if not a > 0.0:  # also rejects NaN from a degenerate estimate
        raise ConfigError("noise power-law prefactor must be positive")
    noise_mode = min(a * float(l) ** b, NOISE_MODE_CAP)
    inflow = gamma_from_mode_variance(1.0, LENGTHSCALE_PRIOR_VARIANCE)
    source = gamma_from_mode_variance(1.0 / l, LENGTHSCALE_PRIOR_VARIANCE)
    return PriorSet(
        noise=gamma_from_mode_mean(noise_mode, NOISE_PRIOR_MEAN),
        signal=GaussianPrior(SIGNAL_PRIOR_MEAN, SIGNAL_PRIOR_VARIANCE),
        lengthscales=(inflow, inflow, source, source),
    )
