"""Binary snapshot-matrix files (.smx).

Layout: 4-byte magic ``SMX1``, three little-endian uint32 fields
(nx, nz, n_snapshots), then the matrix values as column-major little-endian
float64 — one column of length nx*nz per snapshot. Single fields are stored
as one-column matrices.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError

MAGIC = b"SMX1"
_HEADER = struct.Struct("<4sIII")


def write_smx(path, matrix, nx: int, nz: int) -> None:
    """Write a (nx*nz, n_snapshots) matrix to ``path``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype="<f8"))
    if matrix.shape[0] == 1 and nx * nz != 1:
        matrix = matrix.T
    if matrix.shape[0] != nx * nz:
        raise DataError(
            f"matrix has {matrix.shape[0]} rows, grid says {nx}*{nz}={nx * nz}"
        )
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, nx, nz, matrix.shape[1]))
        np.ascontiguousarray(matrix.T).tofile(fh)


def read_smx(path) -> tuple[np.ndarray, int, int]:
    """Read ``path``; returns (matrix of shape (nx*nz, n_snapshots), nx, nz).

    The matrix is column-major, a transposed view of the file's payload.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, nx, nz, n_snap = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        data = np.fromfile(fh, dtype="<f8")
    expected = nx * nz * n_snap
    if data.size != expected:
        raise DataError(f"{path}: expected {expected} values, found {data.size}")
    return data.reshape(n_snap, nx * nz).T, int(nx), int(nz)


def require_finite(matrix, path) -> None:
    """Raise ``DataError`` if ``matrix`` (read from ``path``) holds NaN or Inf."""
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: non-finite values")
