"""Binary field snapshots.

Layout, all little-endian:

    magic   4 bytes  b"HWSF"
    version uint32   1
    nx, ny  uint64
    lx, ly, p, omega, v  float64
    payload nx*ny complex128 samples, interleaved (re, im) float64,
            row-major with the x index slow.

Every storage layout is written by row blocks (`Field._rows`), with no
full complex copy and, from a quarter, no full values.  Loading
validates magic, version, payload size, and (optionally) that the header
grid matches an expected grid; mismatches fail loudly.  The payload is
read by row blocks into a float64 array while every imaginary part is
+0.0, so a field saved from float64 values comes back float64 without a
full complex copy; at the first other imaginary part (-0.0 included) the
payload is read again, straight into a complex128 array.  Files are
written through `atomic_open`, so a reader sees the old file or the
whole new one, never a partial write.
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid

import numpy as np

from .functionals import ModelParams
from .spectral import _slices, Field, Grid, PHYSICAL, to_physical

MAGIC = b"HWSF"
VERSION = 1
_HEADER = struct.Struct("<4sIQQddddd")
_WRITE_ELEMS = 1 << 16  # samples per row block written (1 MB)
_READ_ELEMS = 1 << 16  # samples per row block read while the payload looks real (1 MB)


class SnapshotError(IOError):
    """Corrupt, truncated, or mismatched snapshot file."""


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write `path` through a temporary file in the same directory, moved
    over `path` by one os.replace when the block completes; on an error
    the temporary file is removed and `path` is left as it was."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_snapshot(path: str, field: Field, params: ModelParams) -> None:
    """Write `field` (physical) and `params` in the version-1 layout.
    Every layout goes out one row block at a time (`Field._rows`: a
    quarter's mirrored from it), cast to complex128, so no full complex
    copy is made and a quarter's values are not formed; the bytes are
    those of its complex-typed copy, a real field's imaginary parts +0.0."""
    g = field.grid
    phys = to_physical(field)
    header = _HEADER.pack(MAGIC, VERSION, g.nx, g.ny, g.lx, g.ly,
                          params.p, params.omega, params.v)
    with atomic_open(path) as fh:
        fh.write(header)
        rows = _slices(g.nx, g.ny, _WRITE_ELEMS)
        buf = np.empty((rows[0].stop, g.ny), dtype="<c16")
        for r in rows:
            blk = buf[:r.stop - r.start]
            blk[...] = phys._rows(r)
            blk.tofile(fh)


def load_snapshot(path: str, expect_grid: Grid | None = None) -> tuple[Field, ModelParams]:
    try:
        with open(path, "rb") as fh:
            return _read_snapshot(fh, path, expect_grid)
    except SnapshotError:
        raise
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc


def _read_snapshot(fh, path: str, expect_grid: Grid | None) -> tuple[Field, ModelParams]:
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise SnapshotError(f"{path!r}: truncated header")
    magic, version, nx, ny, lx, ly, p, omega, v = _HEADER.unpack(head)
    if magic != MAGIC:
        raise SnapshotError(f"{path!r}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path!r}: unsupported version {version}")
    # the size check comes first, so a corrupt header allocates no grid
    count = nx * ny
    payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    if payload != count * 16:
        raise SnapshotError(
            f"{path!r}: payload size {payload} bytes, expected {count * 16}")
    try:
        grid = Grid(nx, ny, lx, ly)
        params = ModelParams(p=p, omega=omega, v=v)
    except ValueError as exc:
        raise SnapshotError(f"{path!r}: invalid grid or parameters in header: {exc}") from exc
    if expect_grid is not None and grid != expect_grid:
        raise SnapshotError(
            f"{path!r}: snapshot grid {grid!r} does not match active {expect_grid!r}")
    start = fh.tell()
    real = np.empty(grid.shape)
    for r in _slices(grid.nx, grid.ny, _READ_ELEMS):
        blk = _read_samples(fh, path, (r.stop - r.start) * grid.ny, count)
        if np.any(blk.imag.view(np.uint64)):  # a bit set: not +0.0
            del real, blk
            fh.seek(start)
            vals = _read_samples(fh, path, count, count)
            return Field(grid, vals.reshape(grid.shape), PHYSICAL), params
        real[r] = blk.real.reshape(-1, grid.ny)
    return Field(grid, real, PHYSICAL), params


def _read_samples(fh, path: str, size: int, count: int) -> np.ndarray:
    vals = np.fromfile(fh, dtype="<c16", count=size)
    if vals.size != size:
        raise SnapshotError(f"{path!r}: payload ended short of its {count} samples")
    return vals
