"""Snapshot compression by proper orthogonal decomposition.

The snapshot matrix is centered and scaled by 1/sqrt(N-1) so that its outer
product is the unbiased ensemble covariance. Modes and eigenvalues come from
the method of snapshots (Sirovich 1987): the N-by-N Gram matrix of the scaled
snapshots shares its nonzero eigenvalues with the node-by-node covariance,
which is never formed, and each mode is the combination of scaled snapshots
given by a Gram eigenvector. Projection whitens: with eigenvalues of the
scaled covariance, the training coefficients of every retained mode have
exactly zero mean and unit (unbiased) variance, which is what the per-mode
regressions expect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import smx
from .errors import ConfigError, DataError, NumericalError

VARIANCE_MASK_RTOL = 1e-14  # nodes below this fraction of max variance are masked


@dataclass
class ReducedBasis:
    """Truncated POD basis plus the variance bookkeeping needed downstream."""

    mean_field: np.ndarray        # (n_nodes,)
    modes: np.ndarray             # (n_nodes, L), orthonormal columns
    eigenvalues: np.ndarray       # (L,) of the scaled covariance, descending
    spectrum: np.ndarray          # all positive eigenvalues (length <= n-1)
    total_variance: float         # sum of the full spectrum
    n_train: int
    node_variance: np.ndarray     # (n_nodes,) unbiased per-node variance
    nx: int = 0
    nz: int = 0

    @property
    def L(self) -> int:
        return self.modes.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.mean_field.shape[0]

    @property
    def mask(self) -> np.ndarray:
        """True on nodes with enough ensemble variance to carry local metrics."""
        return self.node_variance >= VARIANCE_MASK_RTOL * self.node_variance.max()

    def basis_id(self) -> str:
        h = hashlib.sha256()
        for arr in (self.mean_field, self.modes, self.eigenvalues):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return h.hexdigest()[:16]

    def save(self, path) -> None:
        path = Path(path)
        matrix = np.column_stack([self.mean_field, self.node_variance, self.modes])
        smx.write_smx(path.with_suffix(".smx"), matrix, self.nx or self.n_nodes, self.nz or 1)
        meta = {
            "L": self.L,
            "n_train": self.n_train,
            "eigenvalues": self.eigenvalues.tolist(),
            "spectrum": self.spectrum.tolist(),
            "total_variance": self.total_variance,
            "nx": self.nx,
            "nz": self.nz,
            "basis_id": self.basis_id(),
        }
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def load(cls, path) -> "ReducedBasis":
        path = Path(path)
        with open(path.with_suffix(".json")) as fh:
            meta = json.load(fh)
        matrix, _, _ = smx.read_smx(path.with_suffix(".smx"))
        smx.require_finite(matrix, path.with_suffix(".smx"))
        basis = cls(
            mean_field=matrix[:, 0],
            node_variance=matrix[:, 1],
            modes=matrix[:, 2:],
            eigenvalues=np.array(meta["eigenvalues"]),
            spectrum=np.array(meta["spectrum"]),
            total_variance=meta["total_variance"],
            n_train=meta["n_train"],
            nx=meta["nx"],
            nz=meta["nz"],
        )
        if basis.basis_id() != meta["basis_id"]:
            raise DataError(f"{path}: basis checksum mismatch")
        return basis


def center_scale(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center columns and scale by 1/sqrt(N-1).

    Returns (mean_field, scaled matrix) with scaled[:, i] =
    (K_i - mean) / sqrt(N-1), so scaled @ scaled.T is the unbiased covariance.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]
    if n < 2:
        raise DataError("centering needs at least 2 snapshots")
    mean_field = matrix.mean(axis=1)
    return mean_field, (matrix - mean_field[:, None]) / np.sqrt(n - 1.0)


def fit(snapshots, L: int) -> ReducedBasis:
    """Fit a rank-L POD basis from a snapshot set or (n_nodes, N) matrix.

    Modes are sign-canonicalized (largest-magnitude entry positive) so
    repeated fits agree bit-wise.
    """
    nx = nz = 0
    if hasattr(snapshots, "matrix"):
        matrix = snapshots.matrix()
        nx, nz = snapshots.grid.nx, snapshots.grid.nz
    else:
        matrix = np.asarray(snapshots, dtype=float)
    n_nodes, n = matrix.shape
    rank = min(n_nodes, n - 1)  # centering removes one dimension
    if not 1 <= L <= rank:
        raise ConfigError(f"L={L} outside [1, min(n_nodes, n-1)={rank}]")

    mean_field, scaled = center_scale(matrix)
    node_variance = np.einsum("ij,ij->i", scaled, scaled)

    gram_values, gram_vectors = np.linalg.eigh(scaled.T @ scaled)
    eigenvalues = gram_values[::-1][:rank]
    positive = eigenvalues > eigenvalues[0] * np.finfo(float).eps * max(n_nodes, n)
    spectrum = eigenvalues[positive]
    if L > spectrum.size:
        raise NumericalError(
            f"requested L={L} exceeds the numerical rank {spectrum.size}"
        )
    modes = scaled @ (gram_vectors[:, ::-1][:, :L] / np.sqrt(eigenvalues[:L]))
    # Sign canonicalization: flip each mode so its largest-|entry| is positive.
    lead = np.abs(modes).argmax(axis=0)
    flip = np.sign(modes[lead, np.arange(L)])
    modes *= flip

    return ReducedBasis(
        mean_field=mean_field,
        modes=modes,
        eigenvalues=eigenvalues[:L].copy(),
        spectrum=spectrum.copy(),
        total_variance=float(spectrum.sum()),
        n_train=n,
        node_variance=node_variance,
        nx=nx,
        nz=nz,
    )


def project(basis: ReducedBasis, fields: np.ndarray) -> np.ndarray:
    """Whitened reduced coefficients of one field or a (n_nodes, m) stack.

    k_l = psi_l^T (field - mean) / sqrt(sigma_l): the 1/sqrt(N-1) of the
    fit-time scaling is carried by the eigenvalues, so training snapshots
    project to coefficients with unit unbiased variance.
    """
    fields = np.asarray(fields, dtype=float)
    single = fields.ndim == 1
    if fields.shape[0] != basis.n_nodes:
        raise DataError(
            f"field has {fields.shape[0]} nodes, basis expects {basis.n_nodes}"
        )
    centered = (fields.T - basis.mean_field).T
    scale = np.sqrt(basis.eigenvalues)
    if single:
        return (basis.modes.T @ centered) / scale
    return (basis.modes.T @ centered) / scale[:, None]


def reconstruct(basis: ReducedBasis, coeff: np.ndarray) -> np.ndarray:
    """Inverse of :func:`project`: field = mean + sum_l sqrt(sigma_l) k_l psi_l."""
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape[0] != basis.L:
        raise DataError(f"expected {basis.L} coefficients, got {coeff.shape[0]}")
    weighted = coeff * np.sqrt(basis.eigenvalues) if coeff.ndim == 1 else (
        coeff * np.sqrt(basis.eigenvalues)[:, None]
    )
    fields = basis.modes @ weighted
    return (fields.T + basis.mean_field).T if fields.ndim == 2 else fields + basis.mean_field


def cumulative_variance(spectrum) -> np.ndarray:
    """Explained-variance fractions Q2(L) for L = 1..len(spectrum)."""
    if isinstance(spectrum, ReducedBasis):
        total = spectrum.total_variance
        values = spectrum.spectrum
    else:
        values = np.asarray(spectrum, dtype=float)
        total = values.sum()
    if total <= 0.0:
        raise DataError("spectrum has no variance")
    return np.cumsum(values) / total


def correlation_map(basis: ReducedBasis, l: int) -> np.ndarray:
    """Per-node correlation between mode l (1-based) and the ensemble.

    Entries are sqrt(sigma_l / node_variance) * psi_l; masked (near-zero
    variance) nodes are returned as NaN. Excess beyond [-1, 1] larger than
    1e-6 indicates inconsistent variance bookkeeping and raises.
    """
    if not 1 <= l <= basis.L:
        raise ConfigError(f"mode index {l} outside [1, {basis.L}]")
    corr = np.full(basis.n_nodes, np.nan)
    mask = basis.mask
    corr[mask] = (
        np.sqrt(basis.eigenvalues[l - 1] / basis.node_variance[mask])
        * basis.modes[mask, l - 1]
    )
    excess = np.nanmax(np.abs(corr)) - 1.0
    if excess > 1e-6:
        raise NumericalError(f"correlation map exceeds [-1,1] by {excess:.3e}")
    return np.clip(corr, -1.0, 1.0, out=corr)
