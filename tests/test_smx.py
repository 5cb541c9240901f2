import numpy as np
import pytest

from plumerom import DataError
from plumerom.smx import read_smx, write_smx


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((12 * 5, 7))
    path = tmp_path / "m.smx"
    write_smx(path, matrix, nx=12, nz=5)
    loaded, nx, nz = read_smx(path)
    assert (nx, nz) == (12, 5)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, matrix)


def test_single_column(tmp_path):
    field = np.arange(20.0)
    path = tmp_path / "f.smx"
    write_smx(path, field[:, None], nx=4, nz=5)
    loaded, _, _ = read_smx(path)
    assert loaded.shape == (20, 1)
    assert np.array_equal(loaded[:, 0], field)


def test_rewrite_identical_bytes(tmp_path):
    matrix = np.linspace(0, 1, 30).reshape(10, 3)
    p1, p2 = tmp_path / "a.smx", tmp_path / "b.smx"
    write_smx(p1, matrix, nx=5, nz=2)
    write_smx(p2, matrix, nx=5, nz=2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.smx"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError):
        read_smx(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.smx"
    write_smx(path, np.ones((6, 2)), nx=3, nz=2)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError):
        read_smx(path)


def test_ragged_payload(tmp_path):
    path = tmp_path / "ragged.smx"
    write_smx(path, np.ones((6, 2)), nx=3, nz=2)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DataError):
        read_smx(path)


def test_wrong_shape_rejected(tmp_path):
    with pytest.raises(DataError):
        write_smx(tmp_path / "x.smx", np.ones((7, 2)), nx=3, nz=2)
