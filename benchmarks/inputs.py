"""Seeded input generators: the same seed always writes the same files.

Recorded question logs follow the recipe of
tests/fixtures/generate_lighthouse_log.py, scaled up: one vertical and one
horizontal question per ordered category pair, a few left unanswered, a
share of answers flipped, and oracle answers recorded only for the
questions calibration can ask.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from reference import OPPOSITE, Triplet

SKIP_RATE = 0.03  # questions left unanswered
FLIP_RATE = 0.18  # answers that invert the true relation
UNKNOWN_RATE = 0.06  # validation answers that come back unclear
NEITHER_RATE = 0.2  # two-option answers that pick neither side

Truth = Callable[[str, str, str], str]  # (subject, object, axis) -> relation


def question_log(rng: np.random.Generator, categories: Sequence[str], truth: Truth) -> list[Triplet]:
    log = []
    for s in categories:
        for o in categories:
            if s == o:
                continue
            for axis in ("vertical", "horizontal"):
                if rng.random() < SKIP_RATE:
                    continue
                relation = truth(s, o, axis)
                if rng.random() < FLIP_RATE:
                    relation = OPPOSITE[relation]
                log.append((s, relation, o))
    return log


def positional_truth(where: dict[str, tuple[float, float]]) -> Truth:
    """True relation from (row, col) positions; ties read as below/right."""

    def truth(s: str, o: str, axis: str) -> str:
        if axis == "vertical":
            return "above" if where[s][0] < where[o][0] else "below"
        return "left" if where[s][1] < where[o][1] else "right"

    return truth


def answer_tables(
    rng: np.random.Generator, log: Sequence[Triplet], truth: Truth
) -> tuple[dict[Triplet, str], dict[tuple[str, str, str, str], str]]:
    """Unreliable yes/no answers for every statement validation can ask
    (each triplet and its reverse), and two-option answers for the same."""
    keys = sorted(set(log) | {(o, OPPOSITE[r], s) for s, r, o in log})
    holds = {}
    for s, r, o in keys:
        true = truth(s, o, "vertical" if r in ("above", "below") else "horizontal") == r
        if rng.random() < UNKNOWN_RATE:
            holds[(s, r, o)] = "unknown"
        else:
            holds[(s, r, o)] = "yes" if rng.random() < (0.92 if true else 0.25) else "no"
    choose = {}
    for s, r, o in keys:
        true = truth(s, o, "vertical" if r in ("above", "below") else "horizontal") == r
        if rng.random() < NEITHER_RATE:
            answer = "neither"
        else:
            answer = "first" if true else "second"
        choose[(s, r, OPPOSITE[r], o)] = answer
    return holds, choose


def corpus_log(seed: int, index: int):
    """Categories, question log and answer tables of recorded log `index`.

    Category counts cycle over 8..24, so larger logs (whose pair scan costs
    more per triplet) appear in every run.
    """
    rng = np.random.default_rng([seed, index])
    names = [f"c{k:02d}" for k in range(8 + index % 17)]
    where = {name: (int(rng.integers(0, 16)), int(rng.integers(0, 16))) for name in names}
    truth = positional_truth(where)
    log = question_log(rng, names, truth)
    holds, choose = answer_tables(rng, log, truth)
    return names, log, holds, choose


def scene_log(seed: int, index: int, roster: Sequence[str], where: dict) -> list[Triplet]:
    """A noisy question log about one generated scene. Background pairs get
    a random relation; calibration drops them before asking anything."""
    rng = np.random.default_rng([seed, 1, index])
    known = positional_truth(where)

    def truth(s: str, o: str, axis: str) -> str:
        if s in where and o in where:
            return known(s, o, axis)
        pair = ("above", "below") if axis == "vertical" else ("left", "right")
        return pair[int(rng.integers(0, 2))]

    return question_log(rng, roster, truth)


def write_triplets(path: Path, categories: Sequence[str], log: Sequence[Triplet]) -> None:
    doc = {
        "categories": list(categories),
        "triplets": [{"subject": s, "relation": r, "object": o} for s, r, o in log],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_oracle(path: Path, holds: dict, choose: dict) -> None:
    doc = {
        "holds": [{"s": s, "r": r, "o": o, "a": a} for (s, r, o), a in holds.items()],
        "choose": [{"s": s, "r1": r1, "r2": r2, "o": o, "a": a} for (s, r1, r2, o), a in choose.items()],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
