"""Exact Gaussian-process regression with an anisotropic Matern-5/2 kernel.

One GP per reduced coefficient: zero prior mean, observation noise s^2,
signal variance rho, and one length-scale per input dimension (ARD). The
marginal log-likelihood and the log-posterior (likelihood plus Gamma /
Gaussian hyperparameter priors) are differentiated analytically; both are
maximized in log-space by a quasi-Newton line search (L-BFGS-B), either from
many random starts (MLL) or from the prior modes in a single descent (MAP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sp_optimize
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotri
from scipy.special import gammaln

from .errors import ConfigError, NumericalError

SQRT5 = math.sqrt(5.0)
JITTER = 1e-8
# L-BFGS-B stopping rule. ftol is relative; below ~1e-10 it drowns in the
# rounding noise of the objective's sum over n points and line searches fail
# spuriously.
GTOL = 1e-6
FTOL = 1e-10
MAXITER = 500
# What the minimizer sees for an evaluation whose kernel did not factorize.
FAILED_OBJECTIVE = 1e30

# Optimization box in natural space (log-space inside the optimizer). The
# signal-variance cap of 2 matches the whitened-coefficient setting, where
# ensemble variance hovers around one.
DEFAULT_BOUNDS = {
    "noise_var": (1e-8, 1.0),
    "signal_var": (1e-2, 2.0),
    "lengthscale": (1e-3, 1e3),
}
# Random-restart sampling box for MLL (log-uniform draws).
RESTART_BOX = {
    "noise_var": (1e-6, 1.0),
    "signal_var": (0.1, 2.0),
    "lengthscale": (1e-2, 1e1),
}


@dataclass(frozen=True)
class Hyperparameters:
    """Noise variance, signal variance, and per-dimension length-scales."""

    noise_var: float
    signal_var: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        if self.noise_var < 0.0:
            raise ConfigError("noise_var must be >= 0")
        if self.signal_var <= 0.0 or any(l <= 0.0 for l in self.lengthscales):
            raise ConfigError("signal_var and lengthscales must be > 0")

    def to_log_vector(self) -> np.ndarray:
        if self.noise_var <= 0.0:
            raise ConfigError("log-space vector requires noise_var > 0")
        return np.log([self.noise_var, self.signal_var, *self.lengthscales])

    @classmethod
    def from_log_vector(cls, v) -> "Hyperparameters":
        v = np.exp(np.asarray(v, dtype=float))
        return cls(noise_var=v[0], signal_var=v[1], lengthscales=tuple(v[2:]))

    def to_dict(self) -> dict:
        return {
            "noise_var": self.noise_var,
            "signal_var": self.signal_var,
            "lengthscales": list(self.lengthscales),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparameters":
        return cls(d["noise_var"], d["signal_var"], tuple(d["lengthscales"]))


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior; shape > 1 so the mode exists and is positive."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 1.0 or self.rate <= 0.0:
            raise ConfigError(f"Gamma prior needs shape > 1 and rate > 0, got "
                              f"shape={self.shape}, rate={self.rate}")

    @property
    def mode(self) -> float:
        return (self.shape - 1.0) / self.rate

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2

    def logpdf(self, x: float) -> float:
        return (
            self.shape * math.log(self.rate)
            - gammaln(self.shape)
            + (self.shape - 1.0) * math.log(x)
            - self.rate * x
        )

    def dlogpdf_dlog(self, x: float) -> float:
        """d logpdf / d log(x), i.e. x * d logpdf / dx."""
        return (self.shape - 1.0) - self.rate * x

    def to_dict(self) -> dict:
        return {"shape": self.shape, "rate": self.rate, "mode": self.mode,
                "mean": self.mean, "variance": self.variance}


@dataclass(frozen=True)
class GaussianPrior:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance <= 0.0:
            raise ConfigError("Gaussian prior variance must be > 0")

    def logpdf(self, x: float) -> float:
        return -0.5 * (x - self.mean) ** 2 / self.variance - 0.5 * math.log(
            2.0 * math.pi * self.variance
        )

    def dlogpdf_dlog(self, x: float) -> float:
        return -(x - self.mean) / self.variance * x

    def to_dict(self) -> dict:
        return {"mean": self.mean, "variance": self.variance}


@dataclass(frozen=True)
class PriorSet:
    """Proper hyperparameter priors: Gamma on the noise variance and on each
    length-scale, Gaussian on the signal variance."""

    noise: GammaPrior
    signal: GaussianPrior
    lengthscales: tuple[GammaPrior, ...]

    def start_point(self) -> Hyperparameters:
        """Gradient-descent start: Gamma components at their mode, the signal
        variance at its Gaussian mean."""
        return Hyperparameters(
            noise_var=self.noise.mode,
            signal_var=self.signal.mean,
            lengthscales=tuple(g.mode for g in self.lengthscales),
        )

    def log_density_and_grad(self, theta: Hyperparameters) -> tuple[float, np.ndarray]:
        """Log prior density at theta and its gradient w.r.t. log-theta."""
        _check_dim(theta, len(self.lengthscales))
        value = self.noise.logpdf(theta.noise_var) + self.signal.logpdf(theta.signal_var)
        grad = np.empty(2 + len(theta.lengthscales))
        grad[0] = self.noise.dlogpdf_dlog(theta.noise_var)
        grad[1] = self.signal.dlogpdf_dlog(theta.signal_var)
        for i, g in enumerate(self.lengthscales):
            value += g.logpdf(theta.lengthscales[i])
            grad[2 + i] = g.dlogpdf_dlog(theta.lengthscales[i])
        return value, grad

    def to_dict(self) -> dict:
        return {
            "noise": self.noise.to_dict(),
            "signal": self.signal.to_dict(),
            "lengthscales": [g.to_dict() for g in self.lengthscales],
        }


def _check_dim(theta: Hyperparameters, dim: int) -> None:
    if len(theta.lengthscales) != dim:
        raise ConfigError(f"theta has {len(theta.lengthscales)} length-scales "
                          f"for {dim}-dimensional inputs")


def _sq_diffs(x1: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """Per-dimension squared differences, shape (dim, n1, n2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = x1 if x2 is None else np.asarray(x2, dtype=float)
    return (x1.T[:, :, None] - x2.T[:, None, :]) ** 2


def _matern52(sqd: np.ndarray, theta: Hyperparameters):
    """Matern-5/2 kernel rho (1 + sqrt5 d + 5/3 d^2) exp(-sqrt5 d) from the
    per-dimension squared differences, d the length-scaled distance.

    Returns (kernel, decay, ramp), with decay = exp(-sqrt5 d) and
    ramp = 1 + sqrt5 d, which the MLL gradient reuses. Three buffers, each
    filled in place; d's buffer becomes the kernel.
    """
    _check_dim(theta, sqd.shape[0])
    d = np.tensordot(1.0 / np.asarray(theta.lengthscales) ** 2, sqd, axes=1)
    np.sqrt(d, out=d)
    decay = np.multiply(d, -SQRT5)
    np.exp(decay, out=decay)
    ramp = np.multiply(d, SQRT5)
    ramp += 1.0
    kernel = d
    kernel *= kernel
    kernel *= 5.0 / 3.0
    kernel += ramp
    kernel *= theta.signal_var
    kernel *= decay
    return kernel, decay, ramp


def kernel_matrix(x1, x2, theta: Hyperparameters) -> np.ndarray:
    """Dense cross-covariance r(x1, x2) without noise."""
    return _matern52(_sq_diffs(x1, x2), theta)[0]


def _factorize(kernel: np.ndarray, noise_var: float):
    """Cholesky of kernel + noise_var*I with the single-jitter fallback."""
    idx = np.diag_indices_from(kernel)
    for jitter in (0.0, JITTER):
        # LAPACK factorizes a Fortran-ordered copy in place. A failed attempt
        # leaves it partly overwritten, so the jitter attempt copies afresh.
        k = np.array(kernel, order="F")
        k[idx] += noise_var
        if jitter:
            k[idx] += jitter
        try:
            return cho_factor(k, lower=True, overwrite_a=True), jitter
        except np.linalg.LinAlgError as exc:
            failure = exc
    raise NumericalError(
        f"kernel matrix not positive definite even with jitter {JITTER:g}"
    ) from failure


@dataclass
class GpModel:
    """A fitted GP: training data, hyperparameters, and factorized covariance."""

    inputs: np.ndarray
    targets: np.ndarray
    theta: Hyperparameters
    chol: tuple
    alpha: np.ndarray
    jitter: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]


def fit_gp(inputs, targets, theta: Hyperparameters, diagnostics: dict | None = None) -> GpModel:
    """Factorize the training covariance and precompute alpha."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != targets.shape[0]:
        raise ConfigError("inputs must be (n, dim) matching targets (n,)")
    kernel = kernel_matrix(inputs, inputs, theta)
    chol, jitter = _factorize(kernel, theta.noise_var)
    alpha = cho_solve(chol, targets)
    return GpModel(
        inputs=inputs,
        targets=targets,
        theta=theta,
        chol=chol,
        alpha=alpha,
        jitter=jitter,
        diagnostics=diagnostics or {},
    )


def posterior_mean_var(model: GpModel, test_inputs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and marginal variance only (cheaper than full cov)."""
    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    k_cross = kernel_matrix(model.inputs, test_inputs, model.theta)
    mean = k_cross.T @ model.alpha
    # The factor was finite when it was made, and rom checks query points
    # where they enter, so scipy's scan of the n x n factor is skipped.
    v = solve_triangular(model.chol[0], k_cross, lower=True, check_finite=False)
    var = model.theta.signal_var - np.einsum("ij,ij->j", v, v)
    return mean, np.maximum(var, 0.0)


class MllProblem:
    """Marginal log-likelihood (and log-posterior) of one target vector.

    Builds the pairwise squared differences of its inputs once; each
    evaluation then builds the kernel from them with ``_matern52``.
    """

    def __init__(self, inputs, targets):
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.n = self.inputs.shape[0]
        self.sqd = _sq_diffs(self.inputs)
        self.sqd_flat = self.sqd.reshape(self.sqd.shape[0], -1)
        self.jitter_events = 0
        # Sums over one triangle of a symmetric product, counted twice, plus
        # its diagonal, equal the sum over the whole matrix.
        self._triangle_weights = np.triu(np.full((self.n, self.n), 2.0), 1)
        np.fill_diagonal(self._triangle_weights, 1.0)

    def mll_and_grad(self, theta: Hyperparameters) -> tuple[float, np.ndarray]:
        """MLL value and gradient w.r.t. log(theta), both analytic."""
        kernel, decay, ramp = _matern52(self.sqd, theta)
        chol, jitter = _factorize(kernel, theta.noise_var)
        if jitter:
            self.jitter_events += 1
        alpha = cho_solve(chol, self.targets, check_finite=False)
        value = (
            -0.5 * float(self.targets @ alpha)
            - float(np.log(np.diagonal(chol[0])).sum())
            - 0.5 * self.n * math.log(2.0 * math.pi)
        )
        # grad_j = 0.5 * sum((alpha alpha^T - K^-1) * dK/dphi_j). dpotri and
        # dsyr fill the lower triangle of the Fortran-ordered factor with
        # K^-1 - alpha alpha^T; its transpose is C-ordered like the kernel and
        # holds those entries in its upper triangle.
        inv, info = dpotri(chol[0], lower=True, overwrite_c=True)
        if info != 0:
            raise NumericalError(f"dpotri failed with info={info}")
        neg_a = dsyr(-1.0, alpha, lower=True, a=inv, overwrite_a=True).T
        neg_a *= self._triangle_weights
        inv_ls2 = 1.0 / np.asarray(theta.lengthscales) ** 2
        grad = np.empty(2 + inv_ls2.size)
        grad[0] = -0.5 * theta.noise_var * np.trace(neg_a)
        # einsum, not np.vdot: with a multi-threaded BLAS, a numpy BLAS dot
        # between scipy's LAPACK calls wakes a second thread pool, which made
        # a call 5-10 ms slower at n = 150-200 on 2 vCPUs.
        grad[1] = -0.5 * float(np.einsum("ij,ij->", neg_a, kernel))
        # dK/dlog(lambda_i) = rho*(5/3)*(1+sqrt5 d)*decay * sqd_i / lambda_i^2
        neg_a *= decay
        neg_a *= ramp
        weights = self.sqd_flat @ neg_a.ravel()
        grad[2:] = -0.5 * theta.signal_var * (5.0 / 3.0) * weights * inv_ls2
        return value, grad

    def log_posterior_and_grad(
        self, theta: Hyperparameters, priors: PriorSet
    ) -> tuple[float, np.ndarray]:
        value, grad = self.mll_and_grad(theta)
        p_value, p_grad = priors.log_density_and_grad(theta)
        return value + p_value, grad + p_grad


def _log_bounds(dim: int) -> list[tuple[float, float]]:
    b = DEFAULT_BOUNDS
    out = [
        (math.log(b["noise_var"][0]), math.log(b["noise_var"][1])),
        (math.log(b["signal_var"][0]), math.log(b["signal_var"][1])),
    ]
    out += [(math.log(b["lengthscale"][0]), math.log(b["lengthscale"][1]))] * dim
    return out


def _descend(objective, start: Hyperparameters, dim: int):
    """One quasi-Newton trajectory maximizing ``objective`` in log-space over
    theta for ``dim``-dimensional inputs.

    Returns (theta, objective value, trajectory record). A failed evaluation
    reads as a flat plateau to L-BFGS-B, which may then stop and report
    success; when the returned theta never factorized, the value is None and
    the trajectory is not converged.
    """
    _check_dim(start, dim)
    failed = 0

    def negated(log_theta):
        nonlocal failed
        theta = Hyperparameters.from_log_vector(log_theta)
        try:
            value, grad = objective(theta)
        except NumericalError:
            failed += 1
            return FAILED_OBJECTIVE, np.zeros_like(log_theta)
        return -value, -grad

    result = sp_optimize.minimize(
        negated,
        start.to_log_vector(),
        jac=True,
        method="L-BFGS-B",
        bounds=_log_bounds(dim),
        options={"maxiter": MAXITER, "gtol": GTOL, "ftol": FTOL},
    )
    factorized = bool(result.fun < FAILED_OBJECTIVE)
    value = -float(result.fun) if factorized else None
    record = {
        "value": value,
        "iterations": int(result.nit),
        "nfev": int(result.nfev),
        "failed_evaluations": failed,
        "converged": factorized and bool(result.success),
        "message": str(result.message) if factorized else "returned theta never factorized",
    }
    return Hyperparameters.from_log_vector(result.x), value, record


def _sample_start(rng: np.random.Generator, dim: int) -> Hyperparameters:
    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return Hyperparameters(
        noise_var=log_uniform(*RESTART_BOX["noise_var"]),
        signal_var=log_uniform(*RESTART_BOX["signal_var"]),
        lengthscales=tuple(
            log_uniform(*RESTART_BOX["lengthscale"]) for _ in range(dim)
        ),
    )


def optimize_mll(
    inputs,
    targets,
    n_restarts: int = 15,
    seed: int = 0,
) -> tuple[Hyperparameters, dict]:
    """Maximize the MLL from ``n_restarts`` random log-uniform starts."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape[0] < 4:
        raise ConfigError("MLL optimization needs at least 4 training points")
    problem = MllProblem(inputs, targets)
    rng = np.random.Generator(np.random.Philox(seed))
    trajectories = []
    best = None
    dim = inputs.shape[1]
    for _ in range(n_restarts):
        theta, value, record = _descend(problem.mll_and_grad, _sample_start(rng, dim), dim)
        trajectories.append(record)
        if value is None:
            continue
        record["theta"] = theta.to_dict()
        if best is None or value > best[1]:
            best = (theta, value)
    if best is None:
        raise NumericalError("every MLL restart failed to factorize")
    diagnostics = {
        "method": "mll",
        "n_restarts": n_restarts,
        "trajectories": trajectories,
        "total_iterations": sum(t["iterations"] for t in trajectories),
        "nfev": sum(t["nfev"] for t in trajectories),
        "failed_evaluations": sum(t["failed_evaluations"] for t in trajectories),
        "best_value": best[1],
        "jitter_events": problem.jitter_events,
    }
    return best[0], diagnostics


def optimize_map(inputs, targets, priors: PriorSet) -> tuple[Hyperparameters, dict]:
    """Maximize the log-posterior in a single descent from the prior modes."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape[0] < 4:
        raise ConfigError("MAP optimization needs at least 4 training points")
    problem = MllProblem(inputs, targets)
    start = priors.start_point()
    theta, value, record = _descend(
        lambda th: problem.log_posterior_and_grad(th, priors), start, inputs.shape[1]
    )
    diagnostics = {
        "method": "map",
        "start": start.to_dict(),
        "total_iterations": record["iterations"],
        "nfev": record["nfev"],
        "failed_evaluations": record["failed_evaluations"],
        "best_value": value,
        "converged": record["converged"],
        "message": record["message"],
        "jitter_events": problem.jitter_events,
    }
    return theta, diagnostics
