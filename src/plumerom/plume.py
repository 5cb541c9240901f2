"""Synthetic full-order surrogate: analytic plume fields on a fixed grid.

Stands in for the expensive flow solver. For any admissible parameter point
it returns a deterministic 2-D field: a Gaussian plume with ground
reflection advected by the log-law inlet wind, modified by an obstacle wake
(upward centerline deflection and spread inflation decaying over ~5 obstacle
heights) and an upstream accumulation bump for low sources upwind of the
obstacle. Smooth pseudo-noise emulates finite time-averaging error: per-node
amplitude proportional to the local field magnitude and to
1/sqrt(window_fraction * t_avg_periods), so half-window companions are
noisier by sqrt(2).

Fields are normalized: concentration by u_tau_ref * H^2 / Q_s, vertical flux
by H^2 / Q_s (the flux already carries a velocity scale).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from . import smx
from .errors import ConfigError, DataError
from .sampling import (
    ParameterSpace,
    check_unit,
    design,
    friction_velocity,
    inlet_profile,
    reference_velocity,
    to_physical,
)

GENERATOR_VERSION = "plume-surrogate-1"

OBSTACLE_HEIGHT = 1.0      # H [m]; obstacle occupies [0,1]x[0,1]
SOURCE_RATE = 1.0          # Q_s [m^3/s]
T_AVG_PERIODS = 40.0       # averaging window length, in characteristic periods
DEFAULT_NOISE_AMPLITUDE = 0.2

_SIGMA_SOURCE = 0.12       # near-source Gaussian core width [m]
_SPREAD_RATE = 1.3         # spread growth per unit turbulence intensity
_WAKE_DECAY = 5.0          # wake relaxation length [m], ~5H
_WAKE_LIFT = 0.8           # centerline deflection at the trailing edge [m]
_WAKE_SPREAD = 1.5         # relative spread inflation in the wake
_ACC_AMPLITUDE = 0.5       # upstream accumulation strength
_FLUX_COEFF = 0.35         # eddy-diffusivity scale for the flux channel

CHANNELS = ("mean_concentration", "vertical_flux")


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid; values are stored row-major (z outer, x inner)."""

    nx: int = 171
    nz: int = 51
    x_range: tuple[float, float] = (-3.5, 13.5)
    z_range: tuple[float, float] = (0.0, 5.0)

    def __post_init__(self):
        if self.nx < 2 or self.nz < 2:
            raise ConfigError("grid needs nx >= 2 and nz >= 2")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.nz

    def x(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    def z(self) -> np.ndarray:
        return np.linspace(self.z_range[0], self.z_range[1], self.nz)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x(), self.z())

    def to_dict(self) -> dict:
        return {
            "nx": self.nx,
            "nz": self.nz,
            "x_range": list(self.x_range),
            "z_range": list(self.z_range),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        return cls(
            nx=d["nx"],
            nz=d["nz"],
            x_range=tuple(d["x_range"]),
            z_range=tuple(d["z_range"]),
        )


@dataclass
class FieldSnapshot:
    """One full-window field and the unit-cube point ``mu`` it was taken at."""

    values: np.ndarray
    mu: np.ndarray
    channel: str = "mean_concentration"


@dataclass
class SnapshotSet:
    """A grid, N snapshots as the columns of one matrix, and a sample table.

    ``values`` is the (n_nodes, N) snapshot matrix, column-major like the
    ``.smx`` payload; ``half`` holds the half-window companions in the same
    layout. Column i of both belongs to row i of the sample table: Halton
    sequence index ``index[i]``, unit-cube point ``unit[i]`` (which identifies
    the sample) and physical point ``physical[i]``.
    """

    grid: Grid
    values: np.ndarray
    index: np.ndarray
    unit: np.ndarray
    physical: np.ndarray
    channel: str = "mean_concentration"
    half: np.ndarray | None = None
    manifest: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def snapshots(self) -> list[FieldSnapshot]:
        """Read-only per-column views of the full-window fields."""
        return [FieldSnapshot(self.values[:, i], mu, self.channel)
                for i, mu in enumerate(self.unit)]

    def matrix(self) -> np.ndarray:
        """Snapshots as columns: shape (n_nodes, N)."""
        return self.values

    def half_matrix(self) -> np.ndarray:
        if self.half is None:
            raise DataError("snapshot set has no half-window companions")
        return self.half

    def unit_inputs(self) -> np.ndarray:
        return self.unit

    def subset(self, indices: range) -> "SnapshotSet":
        """Columns ``indices`` as views of this set's matrices."""
        cols = slice(indices.start, indices.stop, indices.step)
        return SnapshotSet(
            grid=self.grid,
            values=self.values[:, cols],
            index=self.index[cols],
            unit=self.unit[cols],
            physical=self.physical[cols],
            channel=self.channel,
            half=None if self.half is None else self.half[:, cols],
            manifest=dict(self.manifest),
        )

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        smx.write_smx(directory / "full.smx", self.values, self.grid.nx, self.grid.nz)
        if self.half is not None:
            smx.write_smx(directory / "half.smx", self.half, self.grid.nx, self.grid.nz)
        manifest = dict(self.manifest)
        manifest["grid"] = self.grid.to_dict()
        manifest["channel"] = self.channel
        manifest["n_snapshots"] = len(self)
        manifest["has_half_window"] = self.half is not None
        manifest["samples"] = [
            {"index": i, "unit": u, "physical": p}
            for i, u, p in zip(self.index.tolist(), self.unit.tolist(),
                               self.physical.tolist())
        ]
        with open(directory / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1)

    @classmethod
    def load(cls, directory) -> "SnapshotSet":
        directory = Path(directory)
        with open(directory / "manifest.json") as fh:
            manifest = json.load(fh)
        missing = [k for k in ("grid", "samples", "channel", "space") if k not in manifest]
        if missing:
            raise DataError(f"{directory}/manifest.json lacks {', '.join(missing)}")
        grid = Grid.from_dict(manifest["grid"])
        full, nx, nz = smx.read_smx(directory / "full.smx")
        if (nx, nz) != (grid.nx, grid.nz):
            raise DataError("manifest grid disagrees with full.smx header")
        smx.require_finite(full, directory / "full.smx")
        half = None
        if manifest.get("has_half_window"):
            half, _, _ = smx.read_smx(directory / "half.smx")
            smx.require_finite(half, directory / "half.smx")
        records = manifest["samples"]
        try:
            space = ParameterSpace.from_dict(manifest["space"])
            index = np.array([rec["index"] for rec in records], dtype=np.int64)
            unit = check_unit([rec["unit"] for rec in records], space)
            physical = np.array([rec["physical"] for rec in records], dtype=float)
            if physical.shape != unit.shape or not np.isfinite(physical).all():
                raise ValueError(f"physical points must be a finite {unit.shape} table")
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{directory}/manifest.json: mis-shaped, non-finite or "
                            f"out-of-cube sample table: {exc}") from exc
        if full.shape[1] != len(index) or (half is not None and half.shape != full.shape):
            raise DataError(f"{directory}: snapshot matrices disagree with the manifest")
        return cls(grid=grid, values=full, index=index, unit=unit, physical=physical,
                   channel=manifest["channel"], half=half, manifest=manifest)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.clip(v, -60.0, 60.0)))


def _analytic_plume(physical: np.ndarray, grid: Grid, space: ParameterSpace):
    """Noiseless concentration field and its vertical derivative, unnormalized."""
    u_zc, z0, x_src, z_src = physical
    u_tau = friction_velocity(u_zc, z0, space.z_c, space.kappa)
    z_ref = max(z_src, 0.25)
    u_adv = inlet_profile(z_ref, u_tau, z0, space.kappa)
    turb_intensity = u_tau / u_adv

    xg, zg = grid.mesh()
    x_rel = xg - x_src

    # Wake factor: rises past the trailing edge of the [0,1]x[0,1] square,
    # relaxes over ~5H. Sources well above H barely interact.
    wake = _sigmoid((xg - OBSTACLE_HEIGHT) / 0.25) * np.exp(
        -np.maximum(xg - OBSTACLE_HEIGHT, 0.0) / _WAKE_DECAY
    )
    overlap = math.exp(
        -max(z_src - OBSTACLE_HEIGHT, 0.0) ** 2 / (2.0 * 0.6**2)
    )
    centerline = z_src + _WAKE_LIFT * wake * overlap

    x_down = np.maximum(x_rel, 0.0)
    sigma = np.sqrt(_SIGMA_SOURCE**2 + (_SPREAD_RATE * turb_intensity * x_down) ** 2)
    sigma = sigma * (1.0 + _WAKE_SPREAD * wake * overlap)

    ramp = _sigmoid(x_rel / 0.15)
    amp = SOURCE_RATE / (math.sqrt(2.0 * math.pi) * u_adv) / sigma
    dz_m = zg - centerline
    dz_p = zg + centerline
    g_m = np.exp(-(dz_m**2) / (2.0 * sigma**2))
    g_p = np.exp(-(dz_p**2) / (2.0 * sigma**2))
    plume = amp * (g_m + g_p) * ramp
    dplume_dz = amp * ramp * (-(dz_m * g_m + dz_p * g_p) / sigma**2)

    # Near-source core (the emission source has finite spatial extent).
    blob_amp = SOURCE_RATE / (math.sqrt(2.0 * math.pi) * _SIGMA_SOURCE * u_adv)
    r2 = (xg - x_src) ** 2 + (zg - z_src) ** 2
    blob = blob_amp * np.exp(-r2 / (2.0 * _SIGMA_SOURCE**2))
    dblob_dz = blob * (-(zg - z_src) / _SIGMA_SOURCE**2)

    # Accumulation against the windward face for low upstream sources.
    upstream = _sigmoid(-x_src / 0.15) * _sigmoid((OBSTACLE_HEIGHT - z_src) / 0.15)
    proximity = math.exp(min(x_src, 0.0) / 2.0)
    acc_amp = _ACC_AMPLITUDE * upstream * proximity * blob_amp
    dx_b = (xg + 0.3) / 0.45
    dz_b = (zg - 0.35) / 0.40
    acc = acc_amp * np.exp(-0.5 * (dx_b**2 + dz_b**2))
    dacc_dz = acc * (-dz_b / 0.40)

    conc = plume + blob + acc
    dconc_dz = dplume_dz + dblob_dz + dacc_dz
    flux_sign = (1.0 + wake) * (1.0 - 1.6 * wake * overlap)
    flux = -_FLUX_COEFF * u_tau * flux_sign * dconc_dz
    return conc, flux


def _noise_field(unit: np.ndarray, grid: Grid, channel: str, window_fraction: float,
                 seed: int, t_avg_periods: float) -> np.ndarray:
    """Unit-amplitude smooth noise (correlation length ~3 cells), seeded by
    (seed, unit point, window_fraction, channel)."""
    entropy = [
        int(seed) & 0xFFFFFFFFFFFFFFFF,
        CHANNELS.index(channel),
        int(round(window_fraction * 1_000_000)),
        int(round(t_avg_periods * 1_000)),
    ]
    entropy.extend(int(v) for v in np.frombuffer(
        np.asarray(unit, dtype="<f8").tobytes(), dtype="<u8"))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    white = rng.standard_normal((grid.nz, grid.nx))
    smooth = gaussian_filter(white, sigma=3.0, mode="reflect")
    return smooth / smooth.std()


def generate_field(
    unit,
    grid: Grid,
    channel: str = "mean_concentration",
    window_fraction: float = 1.0,
    seed: int = 0,
    *,
    space: ParameterSpace | None = None,
    u_tau_ref: float | None = None,
    noise_amplitude: float = DEFAULT_NOISE_AMPLITUDE,
    t_avg_periods: float = T_AVG_PERIODS,
) -> np.ndarray:
    """One normalized surrogate field, flattened, at the unit-cube point ``unit``.

    Deterministic: identical (unit, seed, window_fraction) give bit-identical
    fields. ``noise_amplitude=0`` is the exact analytic field (test hook).
    Without ``u_tau_ref`` the concentration is normalized by the closed-form
    ``reference_velocity(space)``, the value ``generate_dataset`` records.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ConfigError("window_fraction must lie in (0, 1]")
    if channel not in CHANNELS:
        raise ConfigError(f"unknown channel {channel!r}; expected one of {CHANNELS}")
    space = space or ParameterSpace()
    physical = to_physical(unit, space)
    if space.in_exclusion_box(*physical[2:]):
        raise DataError(
            f"source ({physical[2]}, {physical[3]}) lies inside the obstacle exclusion box"
        )
    if u_tau_ref is None:
        u_tau_ref = reference_velocity(space)

    conc, flux = _analytic_plume(physical, grid, space)
    if channel == "mean_concentration":
        values = conc * (u_tau_ref * OBSTACLE_HEIGHT**2 / SOURCE_RATE)
    else:
        values = flux * (OBSTACLE_HEIGHT**2 / SOURCE_RATE)

    if noise_amplitude > 0.0:
        noise = _noise_field(unit, grid, channel, window_fraction, seed, t_avg_periods)
        scale = noise_amplitude / math.sqrt(window_fraction * t_avg_periods)
        values = values + scale * np.abs(values) * noise
    return values.ravel()


def generate_dataset(
    space: ParameterSpace,
    n: int,
    grid: Grid | None = None,
    channel: str = "mean_concentration",
    seed: int = 0,
    *,
    start_index: int = 1,
    noise_amplitude: float = DEFAULT_NOISE_AMPLITUDE,
    t_avg_periods: float = T_AVG_PERIODS,
) -> SnapshotSet:
    """Generate ``n`` full-window snapshots plus half-window companions.

    The normalization constant u_tau_ref = E[u_tau] is computed once in
    closed form from the space (it does not depend on ``seed``) and recorded
    in the manifest together with everything needed to regenerate the set.
    """
    if n < 2:
        raise ConfigError("a dataset needs at least 2 snapshots")
    grid = grid or Grid()
    index, unit, physical, n_skipped = design(space, n, start_index)
    u_tau_ref = reference_velocity(space)

    kwargs = dict(space=space, u_tau_ref=u_tau_ref, noise_amplitude=noise_amplitude,
                  t_avg_periods=t_avg_periods)
    full = np.empty((grid.n_nodes, n), order="F")
    half = np.empty_like(full)
    for i, point in enumerate(unit):
        full[:, i] = generate_field(point, grid, channel, 1.0, seed, **kwargs)
        half[:, i] = generate_field(point, grid, channel, 0.5, seed, **kwargs)

    manifest = {
        "generator_version": GENERATOR_VERSION,
        "space": space.to_dict(),
        "seed": seed,
        "start_index": start_index,
        "n_requested": n,
        "n_skipped": n_skipped,
        "u_tau_ref": u_tau_ref,
        "noise_amplitude": noise_amplitude,
        "t_avg_periods": t_avg_periods,
    }
    return SnapshotSet(grid=grid, values=full, index=index, unit=unit, physical=physical,
                       channel=channel, half=half, manifest=manifest)
