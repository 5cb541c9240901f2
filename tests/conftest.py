"""Shared fixtures. The expensive session fixtures (the full-size dataset and
its split) are only built when a test actually requests them."""

from __future__ import annotations

import numpy as np
import pytest

from plumerom import ParameterSpace, plume, rom


@pytest.fixture(scope="session")
def space():
    return ParameterSpace()


@pytest.fixture(scope="session")
def small_grid():
    return plume.Grid(nx=41, nz=21)


@pytest.fixture(scope="session")
def dataset200(space):
    """Default-grid dataset used by module-level distribution checks."""
    return plume.generate_dataset(space, 200, plume.Grid(), seed=1)


@pytest.fixture(scope="session")
def dataset80_small(space, small_grid):
    """Small-grid dataset for fast structural tests."""
    return plume.generate_dataset(space, 80, small_grid, seed=2)


@pytest.fixture(scope="session")
def dataset750(space):
    """The full-size dataset of the reference configuration."""
    return plume.generate_dataset(space, 750, plume.Grid(), seed=0)


@pytest.fixture(scope="session")
def splits750(dataset750):
    return rom.split(dataset750)


def toy_matrix(n_nodes=30, n=8, seed=0, rank=None):
    """Random snapshot matrix, optionally rank-deficient."""
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((n_nodes, n))
    basis = rng.standard_normal((n_nodes, rank))
    weights = rng.standard_normal((rank, n))
    return basis @ weights


def regenerate(dataset, i, window_fraction):
    """Column ``i`` of ``dataset`` regenerated from its unit point and manifest."""
    m = dataset.manifest
    return plume.generate_field(
        dataset.unit[i], dataset.grid, dataset.channel, window_fraction, m["seed"],
        space=ParameterSpace.from_dict(m["space"]), u_tau_ref=m["u_tau_ref"],
        noise_amplitude=m["noise_amplitude"], t_avg_periods=m["t_avg_periods"],
    )
