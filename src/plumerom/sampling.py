"""Uncertain-parameter space, Halton designs, and log-law inflow quantities.

The four uncertain inputs are the reference wind speed ``u_zc`` at height
``z_c``, the aerodynamic roughness length ``z0`` (log-uniform), and the
tracer source position and height ``(x_src, z_src)``. Designs are built from
the unscrambled Halton sequence; points landing inside the obstacle exclusion
box are skipped (never resampled) so a design is reproducible and extendable
from its recorded sequence indices.

A parameter point is identified by its unit-cube row: the physical
coordinates are derived from it, and the round trip back is not bit-exact.
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
# Coordinate order of a parameter point, and which coordinates are sampled
# log-uniformly (the others uniformly).
_BOUND_FIELDS = ("u_zc_bounds", "z0_bounds", "x_src_bounds", "z_src_bounds")
_LOG_UNIFORM = (False, True, False, False)


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
        for name, (lo, hi) in zip(_BOUND_FIELDS, self.bounds):
            if not lo < hi:
                raise ConfigError(f"{name} must satisfy lower < upper, got ({lo}, {hi})")
        if self.z0_bounds[0] <= 0.0:
            raise ConfigError("z0 bounds must be strictly positive")
        if self.z_c <= 0.0 or self.kappa <= 0.0:
            raise ConfigError("z_c and kappa must be positive")

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        """The intervals of (u_zc, z0, x_src, z_src), in coordinate order."""
        return tuple(getattr(self, name) for name in _BOUND_FIELDS)

    def in_exclusion_box(self, x_src: float, z_src: float) -> bool:
        (x_lo, x_hi), (z_lo, z_hi) = self.exclusion_box
        return x_lo <= x_src <= x_hi and z_lo <= z_src <= z_hi

    def contains(self, physical) -> bool:
        return all(lo <= v <= hi for v, (lo, hi) in zip(physical, self.bounds, strict=True))

    def to_dict(self) -> dict:
        return {
            **{name: list(getattr(self, name)) for name in _BOUND_FIELDS},
            "exclusion_box": [list(self.exclusion_box[0]), list(self.exclusion_box[1])],
            "z_c": self.z_c,
            "kappa": self.kappa,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterSpace":
        return cls(
            **{name: tuple(d[name]) for name in _BOUND_FIELDS},
            exclusion_box=(tuple(d["exclusion_box"][0]), tuple(d["exclusion_box"][1])),
            z_c=d["z_c"],
            kappa=d["kappa"],
        )


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


def check_unit(points, space: ParameterSpace) -> np.ndarray:
    """``points`` as an (M, d) float array, d the dimension of ``space``.

    The one check of unit-cube points: every value must be finite and in
    [0, 1], else ``ConfigError``.
    """
    dim = len(space.bounds)
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, non-numbers
        raise ConfigError(f"unit points must be an (M, {dim}) array: {exc}") from exc
    # NaN fails both comparisons
    if not (points.ndim == 2 and points.shape[1] == dim
            and np.all((points >= 0.0) & (points <= 1.0))):
        raise ConfigError(f"unit points must be an (M, {dim}) array of finite values "
                          f"in [0, 1]; got shape {points.shape}")
    return points


def to_physical(unit, space: ParameterSpace) -> np.ndarray:
    """Map one unit-cube point to physical parameters.

    u_zc, x_src, z_src are affine maps onto their intervals; z0 is mapped
    exponentially so that its distribution is log-uniform. Each coordinate
    goes through scalar ``math`` functions, whose results the generated
    fields depend on bit for bit, and is clipped to its interval, because
    exp(log(b)) can overshoot by 1 ulp.
    """
    (unit,) = check_unit(np.reshape(unit, (1, -1)), space)
    physical = np.empty_like(unit)
    for k, (u, (lo, hi), log) in enumerate(zip(unit, space.bounds, _LOG_UNIFORM)):
        if log:
            value = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        else:
            value = lo + u * (hi - lo)
        physical[k] = min(max(value, lo), hi)
    return physical


def to_unit(physical, space: ParameterSpace) -> np.ndarray:
    """Inverse of :func:`to_physical` (exact up to round-off)."""
    physical = np.asarray(physical, dtype=float)
    dim = len(space.bounds)
    if physical.shape != (dim,):
        raise ConfigError(f"physical point must have {dim} components")
    if not space.contains(physical):
        raise ConfigError(f"physical point {physical.tolist()} outside parameter bounds")
    unit = np.empty_like(physical)
    for k, (v, (lo, hi), log) in enumerate(zip(physical, space.bounds, _LOG_UNIFORM)):
        if log:
            unit[k] = (math.log(v) - math.log(lo)) / (math.log(hi) - math.log(lo))
        else:
            unit[k] = (v - lo) / (hi - lo)
    return unit


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


def design(space: ParameterSpace, n: int,
           start_index: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Produce ``n`` accepted samples by consuming the Halton sequence.

    Returns the sample table, its sequence indices (n,), unit-cube points
    (n, d) and physical points (n, d), and the number of skipped indices.
    Indices whose source falls in the exclusion box are skipped, never
    resampled, so the design is deterministic and can be extended by
    starting after the last consumed index.
    """
    if n < 1:
        raise ConfigError("design size must be >= 1")
    if start_index < 1:
        raise ConfigError("start_index must be >= 1")
    index, unit, physical = [], [], []
    i = start_index
    while len(index) < n:
        point = halton_point(i, len(space.bounds))
        mapped = to_physical(point, space)
        if not space.in_exclusion_box(*mapped[2:]):
            index.append(i)
            unit.append(point)
            physical.append(mapped)
        i += 1
    return np.array(index), np.array(unit), np.array(physical), i - start_index - n
