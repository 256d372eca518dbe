"""Dense 2-D grid types and grid file formats.

Everything downstream (constraint kernels, losses, metrics) operates on these
types. Coordinates are 0-based; all comparisons against the weighted mean of
the same coordinate grid are shift-invariant, so this matches the usual array
convention without changing any derived mask.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .errors import FormatError, writing_to

#: Denominator guard for weighted means. It pulls a mean m toward 0 by
#: m·ε/(mass + ε), which is under one pixel once the map's mass along the
#: axis is at least the axis length times ε. Below that it can move a
#: half-plane boundary far: one pixel of mass 1e-6 at column 3000 of 4096
#: has mean 1500, not 3000.
DEFAULT_EPSILON = 1e-6

RSGF_MAGIC = b"RSGF1"

#: Most categories a label map file holds: PGM P5 stores one label per byte.
MAX_LABEL_CATEGORIES = 256


def _as_readonly(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """H x W grid of per-pixel probabilities for one category, in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise FormatError(f"probability map must be 2-D and non-empty, got shape {values.shape}")
        bad = (values < 0.0) | (values > 1.0) | ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise FormatError(f"value out of range at ({i},{j}): {float(values[i, j])}")
        object.__setattr__(self, "values", _as_readonly(values))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class LabelMap:
    """H x W grid of category indices, each in [0, num_categories)."""

    labels: np.ndarray
    num_categories: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.size == 0:
            raise FormatError(f"label map must be 2-D and non-empty, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise FormatError(f"label map must hold integers, got dtype {labels.dtype}")
        if self.num_categories < 1:
            raise FormatError("label map needs at least one category")
        if labels.min() < 0 or labels.max() >= self.num_categories:
            raise FormatError(
                f"labels must lie in [0, {self.num_categories}), "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", _as_readonly(labels.astype(np.int64)))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


Grid = TypeVar("Grid", np.ndarray, LabelMap)


def require_shape(path: str | Path, grid: Grid, shape: tuple[int, int], source: str | Path) -> Grid:
    """`grid`, read from `path`, if its shape is `shape`, which `source` gives;
    otherwise a FormatError naming the file."""
    if grid.shape != shape:
        (h, w), (eh, ew) = grid.shape, shape
        raise FormatError(f"{path}: grid is {h}x{w}, but {source} is {eh}x{ew}")
    return grid


def mean_coordinates(marginals: np.ndarray, epsilon: float) -> np.ndarray:
    """Mean coordinate (sum coord*m) / (sum m + epsilon) of each row m of `marginals`, 0 for no mass."""
    mass = marginals.sum(axis=1)
    sums = marginals @ np.arange(marginals.shape[1])
    return np.divide(sums, mass + epsilon, out=np.zeros(mass.shape), where=mass != 0.0)


def make_probability_map(height: int, width: int, values: Sequence[float]) -> ProbabilityMap:
    """Build a validated map from a flat row-major sequence of values."""
    flat = np.asarray(values, dtype=np.float64)
    if flat.size != height * width:
        raise FormatError(
            f"dimension mismatch: expected {height * width} values for a "
            f"{height}x{width} grid, got {flat.size}"
        )
    return ProbabilityMap(flat.reshape(height, width))


# ---------------------------------------------------------------------------
# Grid file formats
# ---------------------------------------------------------------------------
#
# RSGF1 binary layout: 5-byte magic "RSGF1", two uint32 little-endian values
# (height, width), then height*width float32 little-endian values, row-major.
# Label maps are binary PGM (P5), one byte per pixel.


def _read(path: str | Path) -> bytes:
    """The bytes of a file; a failed read raises FormatError naming it."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None


def write_rsgf(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise FormatError(f"RSGF1 stores 2-D grids, got shape {values.shape}")
    height, width = values.shape
    payload = values.astype("<f4").tobytes(order="C")
    with writing_to(path):
        Path(path).write_bytes(RSGF_MAGIC + struct.pack("<II", height, width) + payload)


def read_rsgf(path: str | Path) -> np.ndarray:
    raw = _read(path)
    if len(raw) < 13 or raw[:5] != RSGF_MAGIC:
        raise FormatError(f"{path}: not an RSGF1 grid (bad magic)")
    height, width = struct.unpack("<II", raw[5:13])
    expected = 13 + 4 * height * width
    if len(raw) != expected:
        raise FormatError(f"{path}: truncated RSGF1 grid, expected {expected} bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=13).reshape(height, width)
    return values.astype(np.float64)


def write_labels_pgm(path: str | Path, labels: LabelMap) -> None:
    """Write a label map as a binary PGM (P5), one byte per pixel."""
    if labels.num_categories > MAX_LABEL_CATEGORIES:
        raise FormatError(f"PGM P5 label maps support at most {MAX_LABEL_CATEGORIES} categories")
    header = f"P5\n{labels.width} {labels.height}\n255\n".encode("ascii")
    with writing_to(path):
        Path(path).write_bytes(header + labels.labels.astype(np.uint8).tobytes(order="C"))


def read_labels(path: str | Path, num_categories: int) -> LabelMap:
    """Load a label map from a binary PGM (P5) file."""
    raw = _read(path)
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # comment line
            newline = raw.find(b"\n", pos)
            if newline < 0:
                raise FormatError(f"{path}: PGM header comment has no end of line")
            pos = newline + 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        token = raw[pos:end]
        if not token.isdigit():  # int() would also take "-2", "+2" and "1_0"
            raise FormatError(f"{path}: malformed PGM header")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts, 4,300 by default
            raise FormatError(f"{path}: malformed PGM header") from None
        pos = end
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: PGM maxval must be 255, got {maxval}")
    data = np.frombuffer(raw[pos:], dtype=np.uint8)
    if data.size != height * width:
        raise FormatError(f"{path}: PGM pixel count {data.size} != {height}x{width}")
    try:
        return LabelMap(data.reshape(height, width), num_categories)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
