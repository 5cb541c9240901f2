"""Uncertain-parameter space, Halton designs, and log-law inflow quantities.

The four uncertain inputs are the reference wind speed ``u_zc`` at height
``z_c``, the aerodynamic roughness length ``z0`` (log-uniform), and the
tracer source position and height ``(x_src, z_src)``. Designs are built from
the unscrambled Halton sequence; points landing inside the obstacle exclusion
box are skipped (never resampled) so a design is reproducible and extendable
from its recorded sequence indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_HALTON_BASES = (2, 3, 5, 7)
# The integrand of reference_velocity is smooth in log z0; 16 nodes already
# agree with 32 and 64 to round-off.
_U_TAU_QUADRATURE_NODES = 16


@dataclass(frozen=True)
class ParameterSpace:
    """Bounds and constants describing the 4-D uncertain input space.

    ``z0_bounds`` is interpreted log-uniformly; the other three intervals are
    uniform. ``exclusion_box`` is a closed rectangle in the (x_src, z_src)
    plane that admissible samples must avoid.
    """

    u_zc_bounds: tuple[float, float] = (3.0, 9.0)
    z0_bounds: tuple[float, float] = (1.0e-3, 1.0e-1)
    x_src_bounds: tuple[float, float] = (-3.5, 3.5)
    z_src_bounds: tuple[float, float] = (0.2, 2.0)
    exclusion_box: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, 1.2),
        (-0.2, 1.2),
    )
    z_c: float = 10.0
    kappa: float = 0.41

    def __post_init__(self):
        for name in ("u_zc_bounds", "z0_bounds", "x_src_bounds", "z_src_bounds"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"{name} must satisfy lower < upper, got ({lo}, {hi})")
        if self.z0_bounds[0] <= 0.0:
            raise ConfigError("z0 bounds must be strictly positive")
        if self.z_c <= 0.0 or self.kappa <= 0.0:
            raise ConfigError("z_c and kappa must be positive")

    def in_exclusion_box(self, x_src: float, z_src: float) -> bool:
        (x_lo, x_hi), (z_lo, z_hi) = self.exclusion_box
        return x_lo <= x_src <= x_hi and z_lo <= z_src <= z_hi

    def contains(self, physical) -> bool:
        u_zc, z0, x_src, z_src = physical
        return (
            self.u_zc_bounds[0] <= u_zc <= self.u_zc_bounds[1]
            and self.z0_bounds[0] <= z0 <= self.z0_bounds[1]
            and self.x_src_bounds[0] <= x_src <= self.x_src_bounds[1]
            and self.z_src_bounds[0] <= z_src <= self.z_src_bounds[1]
        )

    def to_dict(self) -> dict:
        return {
            "u_zc_bounds": list(self.u_zc_bounds),
            "z0_bounds": list(self.z0_bounds),
            "x_src_bounds": list(self.x_src_bounds),
            "z_src_bounds": list(self.z_src_bounds),
            "exclusion_box": [list(self.exclusion_box[0]), list(self.exclusion_box[1])],
            "z_c": self.z_c,
            "kappa": self.kappa,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterSpace":
        return cls(
            u_zc_bounds=tuple(d["u_zc_bounds"]),
            z0_bounds=tuple(d["z0_bounds"]),
            x_src_bounds=tuple(d["x_src_bounds"]),
            z_src_bounds=tuple(d["z_src_bounds"]),
            exclusion_box=(tuple(d["exclusion_box"][0]), tuple(d["exclusion_box"][1])),
            z_c=d["z_c"],
            kappa=d["kappa"],
        )


@dataclass(frozen=True)
class ParameterSample:
    """One design point in unit-cube and physical coordinates.

    ``index`` is the Halton sequence index that produced the point;
    ``rejected`` marks points inside the exclusion box (a design skips them).
    """

    unit: np.ndarray
    physical: np.ndarray
    index: int
    rejected: bool = False

    @property
    def u_zc(self) -> float:
        return float(self.physical[0])

    @property
    def z0(self) -> float:
        return float(self.physical[1])

    @property
    def x_src(self) -> float:
        return float(self.physical[2])

    @property
    def z_src(self) -> float:
        return float(self.physical[3])

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "unit": [float(v) for v in self.unit],
            "physical": [float(v) for v in self.physical],
        }


def radical_inverse(index: int, base: int) -> float:
    """Radical inverse of ``index`` in the given prime base."""
    inv = 0.0
    scale = 1.0 / base
    i = index
    while i > 0:
        i, digit = divmod(i, base)
        inv += digit * scale
        scale /= base
    return inv


def halton_point(index: int, dim: int) -> np.ndarray:
    """Point ``index`` (1-based) of the Halton sequence in [0,1]^dim.

    The first ``dim`` primes (2, 3, 5, 7) are used as bases, unscrambled.
    Index 0 is rejected: it maps to the degenerate all-zero point.
    """
    if index < 1:
        raise ConfigError(f"Halton index must be >= 1, got {index}")
    if not 1 <= dim <= len(_HALTON_BASES):
        raise ConfigError(f"dim must be in [1, {len(_HALTON_BASES)}], got {dim}")
    return np.array([radical_inverse(index, b) for b in _HALTON_BASES[:dim]])


def to_physical(unit, space: ParameterSpace, index: int = 0) -> ParameterSample:
    """Map a unit-cube point to physical parameters.

    u_zc, x_src, z_src are affine maps onto their intervals; z0 is mapped
    exponentially so that its distribution is log-uniform. Points whose
    (x_src, z_src) falls inside the exclusion box come back flagged
    ``rejected``; the caller skips to the next sequence index.
    """
    unit = np.asarray(unit, dtype=float)
    if unit.shape != (4,) or np.any(unit < 0.0) or np.any(unit > 1.0):
        raise ConfigError("unit point must lie in [0,1]^4")
    def affine(u, lo, hi):
        return min(max(lo + u * (hi - lo), lo), hi)

    a, b = space.z0_bounds
    physical = np.array(
        [
            affine(unit[0], *space.u_zc_bounds),
            # exponential map; clipped because exp(log(b)) can overshoot by 1 ulp
            min(max(math.exp(math.log(a) + unit[1] * (math.log(b) - math.log(a))), a), b),
            affine(unit[2], *space.x_src_bounds),
            affine(unit[3], *space.z_src_bounds),
        ]
    )
    x_src, z_src = physical[2], physical[3]
    return ParameterSample(
        unit=unit,
        physical=physical,
        index=index,
        rejected=space.in_exclusion_box(x_src, z_src),
    )


def to_unit(physical, space: ParameterSpace) -> np.ndarray:
    """Inverse of :func:`to_physical` (exact up to round-off)."""
    physical = np.asarray(physical, dtype=float)
    if physical.shape != (4,):
        raise ConfigError("physical point must have 4 components")
    if not space.contains(physical):
        raise ConfigError(f"physical point {physical.tolist()} outside parameter bounds")
    a, b = space.z0_bounds
    return np.array(
        [
            (physical[0] - space.u_zc_bounds[0]) / (space.u_zc_bounds[1] - space.u_zc_bounds[0]),
            (math.log(physical[1]) - math.log(a)) / (math.log(b) - math.log(a)),
            (physical[2] - space.x_src_bounds[0]) / (space.x_src_bounds[1] - space.x_src_bounds[0]),
            (physical[3] - space.z_src_bounds[0]) / (space.z_src_bounds[1] - space.z_src_bounds[0]),
        ]
    )


def friction_velocity(u_zc: float, z0: float, z_c: float, kappa: float) -> float:
    """Friction velocity from the wind speed enforced at reference height.

    Inverts the neutral log profile: u_tau = kappa * u_zc / log(1 + z_c/z0).
    """
    if z0 <= 0.0 or z_c <= 0.0:
        raise ConfigError("z0 and z_c must be positive")
    if u_zc <= 0.0:
        raise ConfigError("u_zc must be positive")
    return kappa * u_zc / math.log1p(z_c / z0)


def inlet_profile(z, u_tau: float, z0: float, kappa: float):
    """Mean streamwise inlet wind at height(s) z: (u_tau/kappa)*log(1 + z/z0)."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ConfigError("height z must be non-negative")
    if z0 <= 0.0:
        raise ConfigError("z0 must be positive")
    out = (u_tau / kappa) * np.log1p(z / z0)
    return float(out) if out.ndim == 0 else out


def reference_velocity(space: ParameterSpace) -> float:
    """E[u_tau] over the (u_zc, z0) marginals, in closed form.

    u_tau is linear in u_zc, so E[u_tau] = kappa * mean(u_zc) *
    E[1 / log(1 + z_c/z0)], a 1-D integral over log z0 (uniform on the log
    of the z0 bounds). A 16-node Gauss-Legendre rule evaluates it to
    round-off. Used to normalize concentration fields; it depends on the
    space only, never on a random seed.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_U_TAU_QUADRATURE_NODES)
    lo, hi = math.log(space.z0_bounds[0]), math.log(space.z0_bounds[1])
    log_z0 = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    mean_inv_log = 0.5 * float(weights @ (1.0 / np.log1p(space.z_c / np.exp(log_z0))))
    mean_u_zc = 0.5 * (space.u_zc_bounds[0] + space.u_zc_bounds[1])
    return space.kappa * mean_u_zc * mean_inv_log


@dataclass
class Design:
    """An accepted-sample Halton design over a parameter space."""

    space: ParameterSpace
    samples: list[ParameterSample]
    start_index: int
    n_skipped: int = 0


def design(space: ParameterSpace, n: int, start_index: int = 1) -> Design:
    """Produce ``n`` accepted samples by consuming the Halton sequence.

    Rejected indices (exclusion box) are skipped so the accepted design is
    deterministic and can be extended by starting after the last consumed
    index.
    """
    if n < 1:
        raise ConfigError("design size must be >= 1")
    if start_index < 1:
        raise ConfigError("start_index must be >= 1")
    samples: list[ParameterSample] = []
    n_skipped = 0
    index = start_index
    while len(samples) < n:
        sample = to_physical(halton_point(index, 4), space, index=index)
        if sample.rejected:
            n_skipped += 1
        else:
            samples.append(sample)
        index += 1
    return Design(space=space, samples=samples, start_index=start_index, n_skipped=n_skipped)
