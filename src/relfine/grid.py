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

from .errors import FormatError, load_json_object, require_int, writing_to

#: Denominator guard for weighted means, small enough that it never moves a
#: half-plane boundary on grids up to 4096 px.
DEFAULT_EPSILON = 1e-6

RSGF_MAGIC = b"RSGF1"


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
            raise FormatError(f"value out of range at ({i},{j}): {values[i, j]!r}")
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
            raise _out_of_range(self.num_categories, labels.min(), labels.max())
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


def _out_of_range(num_categories: int, low: object, high: object) -> FormatError:
    return FormatError(f"labels must lie in [0, {num_categories}), found range [{low}, {high}]")


Grid = TypeVar("Grid", np.ndarray, LabelMap)


def require_shape(path: str | Path, grid: Grid, shape: tuple[int, int], source: str | Path) -> Grid:
    """`grid`, read from `path`, if its shape is `shape`, which `source` gives;
    otherwise a FormatError naming the file."""
    if grid.shape != shape:
        (h, w), (eh, ew) = grid.shape, shape
        raise FormatError(f"{path}: grid is {h}x{w}, but {source} is {eh}x{ew}")
    return grid


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
# The JSON alternative is {"height": H, "width": W, "values": [...]} with the
# same row-major ordering.


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


def read_grid_json(path: str | Path) -> np.ndarray:
    doc = load_json_object(path)
    for key in ("height", "width", "values"):
        if key not in doc:
            raise FormatError(f"{path}: grid JSON missing key {key!r}")
    unknown = set(doc) - {"height", "width", "values"}
    if unknown:
        raise FormatError(f"{path}: grid JSON has unknown keys {sorted(unknown)}")
    height, width = (require_int(doc[key], f"{path}: {key!r}") for key in ("height", "width"))
    if height < 1 or width < 1:
        raise FormatError(f"{path}: 'height' and 'width' must be positive, got {height}x{width}")
    if not isinstance(doc["values"], list) or not {type(v) for v in doc["values"]} <= {int, float}:
        raise FormatError(f"{path}: 'values' must be a list of numbers")
    try:
        flat = np.asarray(doc["values"], dtype=np.float64)
    except OverflowError:
        raise FormatError(f"{path}: 'values' holds an integer too large for float64") from None
    if flat.size != height * width:
        raise FormatError(
            f"{path}: dimension mismatch: expected {height * width} values, got {flat.size}"
        )
    return flat.reshape(height, width)


def _read(path: str | Path, size: int = -1) -> bytes:
    """The first `size` bytes of a file, all by default; a failed read raises FormatError naming it."""
    try:
        with open(path, "rb") as handle:
            return handle.read(size)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None


def read_grid(path: str | Path) -> np.ndarray:
    """Load a grid from either format, sniffing the RSGF1 magic bytes."""
    if _read(path, 5) == RSGF_MAGIC:
        return read_rsgf(path)
    return read_grid_json(path)


def write_labels_pgm(path: str | Path, labels: LabelMap) -> None:
    """Write a label map as a binary PGM (P5), one byte per pixel."""
    if labels.num_categories > 256:
        raise FormatError("PGM P5 label maps support at most 256 categories")
    header = f"P5\n{labels.width} {labels.height}\n255\n".encode("ascii")
    with writing_to(path):
        Path(path).write_bytes(header + labels.labels.astype(np.uint8).tobytes(order="C"))


def read_labels_pgm(path: str | Path, num_categories: int) -> LabelMap:
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
        fields.append(int(token))
        pos = end
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: PGM maxval must be 255, got {maxval}")
    data = np.frombuffer(raw[pos:], dtype=np.uint8)
    if data.size != height * width:
        raise FormatError(f"{path}: PGM pixel count {data.size} != {height}x{width}")
    return _label_map(path, data.reshape(height, width).astype(np.int64), num_categories)


def _label_map(path: str | Path, labels: np.ndarray, num_categories: int) -> LabelMap:
    """The LabelMap of `labels`, read from `path`; a failed check names the file."""
    try:
        return LabelMap(labels, num_categories)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_labels(path: str | Path, num_categories: int) -> LabelMap:
    """Load a label map from PGM P5 or from an RSGF1/JSON grid of integer floats."""
    if _read(path, 5).startswith(b"P5"):
        return read_labels_pgm(path, num_categories)
    values = read_grid(path)
    if not np.array_equal(np.rint(values), values):
        raise FormatError(f"{path}: label grid holds non-integer values")
    # A value past int64 (1e30, inf) lies outside every roster, and the int64
    # cast would wrap it, so its range is reported before the cast.
    if np.abs(values).max(initial=0.0) >= 2.0**63:
        raise FormatError(f"{path}: {_out_of_range(num_categories, values.min(), values.max())}")
    return _label_map(path, values.astype(np.int64), num_categories)
