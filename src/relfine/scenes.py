"""Synthetic desk-scale scenes: known label maps, noisy maps, true triplets.

A scene paints axis-aligned rectangles over a background, derives the full
set of spatial triplets its geometry satisfies, then corrupts one-hot
probability maps with category confusion and Gaussian noise. Everything is
computed from an explicit seed, so scenes regenerate bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    FormatError,
    check_fields,
    from_fields,
    load_json_object,
    require_safe_name,
    write_json_object,
    writing_to,
)
from .grid import (
    MAX_LABEL_CATEGORIES,
    LabelMap,
    ProbabilityMap,
    read_labels,
    read_rsgf,
    require_shape,
    write_labels_pgm,
    write_rsgf,
)
from .relations import (
    BACKGROUND,
    Relation,
    SpatialTriplet,
    TripletSet,
    geometric_oracle,
    load_triplets,
    save_triplets,
)

#: Readable, filename-safe names handed out by the random spec sampler.
CATEGORY_POOL = ("amber", "blue", "coral", "dune", "elm", "fern", "gold", "heath")

#: Smallest rectangle side `random_grid_spec` draws, in pixels.
MIN_EXTENT = 4

#: Largest scene grid, in pixels (height x width). One float64 map of 4096²
#: pixels is 128 MiB and refinement keeps several per category; every grid
#: the tests, demos and benchmark use is at most 256².
MAX_PIXELS = 4096 * 4096

#: Largest scene, in cells (categories x height x width), so that one worker
#: stays under 2 GiB. `refine`, the hungriest command, peaked at 256 MiB RSS
#: at 512² and 925 MiB at 1024² with 9 categories over 3 steps (whole
#: process, x86-64 Linux, single-threaded BLAS): about 99 bytes per cell
#: over a 33 MiB base. So 2 GiB holds (2048 - 33) MiB / 99 B, about 21.3
#: million cells, rounded down here. `gen-scenes` and `eval` peak lower
#: (210 and 213 MiB at 1024²).
MAX_CELLS = 20 * 2**20


@dataclass(frozen=True)
class Placement:
    """Half-open rectangle [row0, row1) x [col0, col1) painted for one category."""

    category: str
    row0: int
    col0: int
    row1: int
    col1: int

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class Confusion:
    """Symmetric probability-mass mixing between two categories' regions."""

    first: str
    second: str
    strength: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 <= self.strength <= 1.0:
            raise FormatError(f"strength must lie in [0, 1], got {self.strength}")
        if self.first == self.second:
            raise FormatError(f"first and second must differ, both are {self.first!r}")


@dataclass(frozen=True)
class SceneSpec:
    height: int
    width: int
    placements: tuple[Placement, ...]
    noise_sigma: float = 0.0
    confusion: Confusion | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not isinstance(self.placements, (list, tuple)) or not all(
            isinstance(p, Placement) for p in self.placements
        ):
            raise FormatError(f"placements must be a list of Placement objects, got {self.placements!r}")
        object.__setattr__(self, "placements", tuple(self.placements))
        if not (self.confusion is None or isinstance(self.confusion, Confusion)):
            raise FormatError(f"confusion must be a Confusion object or null, got {self.confusion!r}")
        if self.height < 1 or self.width < 1:
            raise FormatError(f"scene dimensions must be positive, got {self.height}x{self.width}")
        if self.height * self.width > MAX_PIXELS:
            raise FormatError(
                f"height x width must be at most {MAX_PIXELS} pixels, got {self.height}x{self.width}"
            )
        count = len(self.categories)
        if count > MAX_LABEL_CATEGORIES:
            raise FormatError(
                f"a scene holds at most {MAX_LABEL_CATEGORIES} categories, background included, got {count}"
            )
        if count * self.height * self.width > MAX_CELLS:
            raise FormatError(
                f"categories x height x width must be at most {MAX_CELLS} cells, "
                f"got {count}x{self.height}x{self.width}"
            )
        if not self.placements:
            raise FormatError("scene needs at least one placement")
        if self.noise_sigma < 0:
            raise FormatError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if self.seed < 0:
            raise FormatError(f"seed must be nonnegative, got {self.seed}")
        seen = set()
        for p in self.placements:
            if p.category == BACKGROUND:
                raise FormatError("placements may not use the background category")
            if p.category in seen:
                raise FormatError(f"category {p.category!r} placed more than once")
            seen.add(p.category)
            if not (0 <= p.row0 < p.row1 <= self.height and 0 <= p.col0 < p.col1 <= self.width):
                raise FormatError(
                    f"placement for {p.category!r} out of bounds: "
                    f"rows [{p.row0},{p.row1}) cols [{p.col0},{p.col1}) "
                    f"in a {self.height}x{self.width} scene"
                )
        if self.confusion is not None:
            for name in (self.confusion.first, self.confusion.second):
                if name not in seen:
                    raise FormatError(f"confusion names unplaced category {name!r}")

    @property
    def categories(self) -> tuple[str, ...]:
        """Roster with background at index 0, then placements in order."""
        return (BACKGROUND, *(p.category for p in self.placements))


@dataclass(frozen=True, eq=False)
class Scene:
    spec: SceneSpec
    gt_labels: LabelMap
    categories: tuple[str, ...]
    init_probs: dict[str, ProbabilityMap]
    gt_triplets: TripletSet


def derive_gt_triplets(labels: LabelMap, roster: Sequence[str]) -> TripletSet:
    """Every triplet the label map's centroids satisfy, excluding background: the
    True entries of the geometric oracle's table, in (subject, object, relation)
    order. Its diagonal is False, as no centroid lies strictly beside itself."""
    kept = np.array([name != BACKGROUND for name in roster])
    found = np.nonzero(geometric_oracle(labels, roster).table & (kept[:, None] & kept)[:, :, None])
    relations = tuple(Relation)
    triplets = [SpatialTriplet(roster[s], relations[r], roster[o]) for s, o, r in zip(*(a.tolist() for a in found))]
    return TripletSet(tuple(triplets), tuple(roster))


def generate_scene(spec: SceneSpec) -> Scene:
    """Paint labels, derive triplets, and corrupt one-hot maps into init_probs.

    Placements paint in order (later ones overwrite). Confusion mixes the
    whole maps of its two categories before noise is added; both are 0
    outside their rectangles, so mass moves only inside them. Maps are then
    clamped to [0, 1] and renormalized per pixel, in place, uniform where
    every map clamps to 0.
    """
    roster = spec.categories
    labels_arr = np.zeros((spec.height, spec.width), dtype=np.int64)
    for index, p in enumerate(spec.placements, start=1):
        labels_arr[p.row0 : p.row1, p.col0 : p.col1] = index
    gt_labels = LabelMap(labels_arr, len(roster))

    probs = np.zeros((len(roster), spec.height, spec.width), dtype=np.float64)
    for index in range(len(roster)):
        probs[index] = labels_arr == index

    if spec.confusion is not None:
        c = spec.confusion
        i = roster.index(c.first)
        j = roster.index(c.second)
        first, second = probs[i].copy(), probs[j].copy()
        probs[i] = (1.0 - c.strength) * first + c.strength * second
        probs[j] = (1.0 - c.strength) * second + c.strength * first

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        probs += rng.normal(0.0, spec.noise_sigma, probs.shape)

    np.clip(probs, 0.0, 1.0, out=probs)
    totals = probs.sum(axis=0)
    empty = totals == 0.0
    totals[empty] = 1.0
    probs /= totals
    probs[:, empty] = 1.0 / len(roster)

    init_probs = {name: ProbabilityMap(probs[index]) for index, name in enumerate(roster)}
    return Scene(
        spec=spec,
        gt_labels=gt_labels,
        categories=roster,
        init_probs=init_probs,
        gt_triplets=derive_gt_triplets(gt_labels, roster),
    )


def random_grid_spec(
    seed: int,
    n_categories: int = 3,
    height: int = 32,
    width: int = 32,
    noise_sigma: float = 0.15,
    confusion_strength: float | None = 0.5,
) -> SceneSpec:
    """Sample a band-aligned scene: one rectangle per category, laid out on a
    cell grid where every band shares its span.

    Rectangles in the same band column share their column span and ones in
    the same band row share their row span, so any two categories either
    have identical centroids on an axis (no triplet there) or fully disjoint
    extents (every pixel satisfies the derived triplet). That makes the
    derived triplets exactly satisfiable, not just satisfied on centroids.
    """
    if not 1 <= n_categories <= len(CATEGORY_POOL):
        raise FormatError(f"n_categories must lie in [1, {len(CATEGORY_POOL)}]")
    rng = np.random.default_rng(seed)
    bands = int(np.ceil(np.sqrt(n_categories)))
    if height < bands * (MIN_EXTENT + 1) or width < bands * (MIN_EXTENT + 1):
        raise FormatError(f"{height}x{width} too small for {bands}x{bands} bands")

    def spans(total: int) -> list[tuple[int, int]]:
        edges = [int(e) for e in np.linspace(0, total, bands + 1)]
        out = []
        for band_start, band_end in zip(edges[:-1], edges[1:]):
            room = band_end - band_start
            extent = int(rng.integers(MIN_EXTENT, room))
            offset = int(rng.integers(0, room - extent + 1))
            out.append((band_start + offset, band_start + offset + extent))
        return out

    row_spans = spans(height)
    col_spans = spans(width)
    cells = [(i, j) for i in range(bands) for j in range(bands)]
    picks = rng.choice(len(cells), size=n_categories, replace=False)

    placements = []
    for name, pick in zip(CATEGORY_POOL, picks):
        i, j = cells[pick]
        (r0, r1), (c0, c1) = row_spans[i], col_spans[j]
        placements.append(Placement(name, r0, c0, r1, c1))

    confusion = None
    if confusion_strength is not None and n_categories >= 2:
        a, b = rng.choice(n_categories, size=2, replace=False)
        confusion = Confusion(placements[a].category, placements[b].category, confusion_strength)

    return SceneSpec(
        height=height,
        width=width,
        placements=tuple(placements),
        noise_sigma=noise_sigma,
        confusion=confusion,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Scene bundles on disk
# ---------------------------------------------------------------------------
#
# A bundle directory holds spec.json, gt_labels.pgm (P5), triplets.json, and
# probs/<category>.rsgf for every roster entry including background.


def spec_to_dict(spec: SceneSpec) -> dict:
    """The JSON object of `spec`: its fields, with the placements as a list.
    The dataclasses hold plain ints and floats, so a shallow copy encodes."""
    confusion = spec.confusion
    return {
        **vars(spec),
        "placements": [dict(vars(p)) for p in spec.placements],
        "confusion": None if confusion is None else dict(vars(confusion)),
    }


def _placements(entries: object) -> object:
    """A JSON list of placement objects as Placements; anything else is left
    for SceneSpec to reject."""
    if not isinstance(entries, list):
        return entries
    return [from_fields(Placement, entry, f"placements[{index}]") for index, entry in enumerate(entries)]


def _confusion(entry: object) -> object:
    return from_fields(Confusion, entry, "confusion") if isinstance(entry, dict) else entry


def spec_from_dict(doc: dict, where: str = "scene spec") -> SceneSpec:
    return from_fields(SceneSpec, doc, where, placements=_placements, confusion=_confusion)


def save_scene_bundle(path: str | Path, scene: Scene) -> None:
    for name in scene.categories:
        require_safe_name(name, "category")
    root = Path(path)
    with writing_to(root / "probs"):
        (root / "probs").mkdir(parents=True, exist_ok=True)
    write_json_object(root / "spec.json", spec_to_dict(scene.spec))
    write_labels_pgm(root / "gt_labels.pgm", scene.gt_labels)
    save_triplets(root / "triplets.json", scene.gt_triplets)
    for name in scene.categories:
        write_rsgf(root / "probs" / f"{name}.rsgf", scene.init_probs[name].values)


def load_scene_bundle(path: str | Path) -> Scene:
    """The scene saved at `path`. A bundle file that is missing or cannot be
    read, a grid whose shape is not spec.json's height x width, or a
    probability grid with a value outside [0, 1] raises FormatError naming it."""
    root = Path(path)
    spec_path = root / "spec.json"
    spec = spec_from_dict(load_json_object(spec_path), where=str(spec_path))
    triplets = load_triplets(root / "triplets.json")
    roster = spec.categories
    if triplets.categories != roster:
        raise FormatError(
            f"{root / 'triplets.json'}: categories {list(triplets.categories)} "
            f"differ from the roster {list(roster)} that spec.json places"
        )
    shape = (spec.height, spec.width)
    gt_path = root / "gt_labels.pgm"
    gt_labels = require_shape(gt_path, read_labels(gt_path, len(roster)), shape, spec_path)
    init_probs = {}
    for name in roster:
        grid_path = root / "probs" / f"{name}.rsgf"
        values = require_shape(grid_path, read_rsgf(grid_path), shape, spec_path)
        try:
            init_probs[name] = ProbabilityMap(values)
        except FormatError as exc:
            raise FormatError(f"{grid_path}: {exc}") from None
    return Scene(
        spec=spec,
        gt_labels=gt_labels,
        categories=roster,
        init_probs=init_probs,
        gt_triplets=triplets,
    )
