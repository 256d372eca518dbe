from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from relfine.errors import FormatError
from relfine.grid import (
    LabelMap,
    ProbabilityMap,
    make_probability_map,
    read_grid,
    read_labels,
    read_labels_pgm,
    read_rsgf,
    write_labels_pgm,
    write_rsgf,
)
from reference_kernels import weighted_mean_coordinate


def test_make_probability_map_boundary_values():
    pmap = make_probability_map(1, 2, [0.0, 1.0])
    assert pmap.shape == (1, 2)
    assert pmap.values.tolist() == [[0.0, 1.0]]


def test_make_probability_map_rejects_out_of_range():
    with pytest.raises(FormatError, match=r"value out of range at \(0,1\)"):
        make_probability_map(1, 2, [0.5, 1.5])
    with pytest.raises(FormatError, match=r"value out of range at \(1,0\)"):
        make_probability_map(2, 1, [0.5, -0.01])


def test_make_probability_map_rejects_dimension_mismatch():
    with pytest.raises(FormatError, match="dimension mismatch"):
        make_probability_map(2, 2, [0.1, 0.2, 0.3])


def test_probability_map_values_are_read_only():
    pmap = make_probability_map(1, 2, [0.1, 0.2])
    with pytest.raises(ValueError):
        pmap.values[0, 0] = 0.5


def test_weighted_mean_single_unit_mass():
    pmap = make_probability_map(1, 3, [0.0, 1.0, 0.0])
    assert weighted_mean_coordinate(pmap, "col", 1e-6) == pytest.approx(1.0 / (1.0 + 1e-6))


def test_weighted_mean_uniform_row():
    # Hand evaluation: coords 0,1,2 with unit masses -> 3 / (3 + eps).
    pmap = make_probability_map(1, 3, [1.0, 1.0, 1.0])
    expected = (0 * 1 + 1 * 1 + 2 * 1) / (1 + 1 + 1 + 1e-6)
    assert weighted_mean_coordinate(pmap, "col", 1e-6) == pytest.approx(expected, rel=1e-12)


def test_weighted_mean_zero_mass_returns_zero():
    pmap = make_probability_map(2, 2, [0.0] * 4)
    assert weighted_mean_coordinate(pmap, "col", 1e-6) == 0.0
    assert weighted_mean_coordinate(pmap, "row", 0.0) == 0.0


def test_weighted_mean_symmetric_map_is_center_exactly():
    rng = np.random.default_rng(3)
    for width in (3, 4, 7, 10):
        # Integer-eighth values keep products and sums exact in float64.
        half = rng.integers(0, 9, size=(2, width)) / 8.0
        values = np.minimum(1.0, (half + half[:, ::-1]) / 2.0)
        pmap = ProbabilityMap(values)
        if values.sum() == 0.0:
            continue
        assert weighted_mean_coordinate(pmap, "col", 0.0) == (width - 1) / 2


def test_weighted_mean_shift_invariance_of_comparisons():
    # Thresholding coords at the mean gives the same mask whether coordinates
    # start at 0 or 1, because the mean shifts by the same constant (eps=0).
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.random((4, 5))
        pmap = ProbabilityMap(values)
        cols = np.indices((4, 5))[1]
        mean0 = weighted_mean_coordinate(pmap, "col", 0.0)
        mean1 = float(((cols + 1) * values).sum() / values.sum())
        assert (cols >= mean0).tolist() == ((cols + 1) >= mean1).tolist()


def test_weighted_mean_shift_invariance_with_epsilon_guard():
    # Same comparison with the production epsilon: masks agree on every grid
    # where no coordinate sits within 1e-4 of the mean.
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(50):
        values = rng.random((4, 5))
        pmap = ProbabilityMap(values)
        cols = np.indices((4, 5))[1]
        mean0 = weighted_mean_coordinate(pmap, "col", 1e-6)
        mean1 = float(((cols + 1) * values).sum() / (values.sum() + 1e-6))
        if np.abs(cols - mean0).min() <= 1e-4:
            continue
        checked += 1
        assert (cols >= mean0).tolist() == ((cols + 1) >= mean1).tolist()
    assert checked > 30


def test_label_map_validation():
    with pytest.raises(FormatError, match="labels must lie in"):
        LabelMap(np.array([[0, 3]]), 3)
    with pytest.raises(FormatError, match="must hold integers"):
        LabelMap(np.array([[0.5]]), 1)


def test_rsgf_round_trip_and_exact_bytes(tmp_path):
    values = np.array([[0.0, 0.25], [0.5, 1.0]])
    path = tmp_path / "grid.rsgf"
    write_rsgf(path, values)
    raw = path.read_bytes()
    assert raw[:5] == b"RSGF1"
    assert struct.unpack("<II", raw[5:13]) == (2, 2)
    assert raw[13:] == np.array([0.0, 0.25, 0.5, 1.0], dtype="<f4").tobytes()
    assert read_rsgf(path).tolist() == values.tolist()


def test_rsgf_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.rsgf"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        read_rsgf(path)
    path.write_bytes(b"RSGF1" + struct.pack("<II", 2, 2) + b"\x00" * 4)
    with pytest.raises(FormatError, match="truncated"):
        read_rsgf(path)


def test_grid_json_round_trip_and_sniffing(tmp_path):
    values = np.array([[0.125, 0.75]])
    json_path = tmp_path / "grid.json"
    json_path.write_text(json.dumps({"height": 1, "width": 2, "values": [0.125, 0.75]}) + "\n")
    assert read_grid(json_path).tolist() == values.tolist()

    rsgf_path = tmp_path / "grid.rsgf"
    write_rsgf(rsgf_path, values)
    assert read_grid(rsgf_path).tolist() == values.tolist()


def test_grid_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('{"height": 1, "width": 1, "values": [0.5], "extra": 1}')
    with pytest.raises(FormatError, match="unknown keys"):
        read_grid(path)


def test_pgm_round_trip(tmp_path):
    labels = LabelMap(np.array([[0, 1], [2, 1]]), 3)
    path = tmp_path / "labels.pgm"
    write_labels_pgm(path, labels)
    assert path.read_bytes().startswith(b"P5\n2 2\n255\n")
    loaded = read_labels_pgm(path, 3)
    assert loaded.labels.tolist() == labels.labels.tolist()


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "commented.pgm"
    body = bytes([0, 1, 2, 1])
    path.write_bytes(b"P5\n# made by hand\n2 2\n# another note\n255\n" + body)
    loaded = read_labels_pgm(path, 3)
    assert loaded.labels.tolist() == [[0, 1], [2, 1]]


def test_pgm_unterminated_header_comment(tmp_path):
    path = tmp_path / "unterminated.pgm"
    path.write_bytes(b"P5\n# no newline")
    with pytest.raises(FormatError, match="unterminated.pgm: PGM header comment"):
        read_labels_pgm(path, 3)


def test_grid_json_missing_key(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('{"height": 1, "width": 2}')
    with pytest.raises(FormatError, match="missing key"):
        read_grid(path)


def test_read_labels_accepts_integer_rsgf(tmp_path):
    path = tmp_path / "labels.rsgf"
    write_rsgf(path, np.array([[0.0, 2.0]]))
    loaded = read_labels(path, 3)
    assert loaded.labels.tolist() == [[0, 2]]
    write_rsgf(path, np.array([[0.5]]))
    with pytest.raises(FormatError, match="non-integer"):
        read_labels(path, 3)
