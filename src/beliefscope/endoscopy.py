"""Synthetic scene streams for the colonoscopy models.

The shipped models, their defaults table and the IF/THEN rule compiler are
defined in :mod:`beliefscope.models`, which imports no numpy, and are
re-exported here.
"""

from __future__ import annotations

import random

from .models import (  # re-exported
    BUILTIN_MODELS, DEFAULT_PROBS, HYPOTHESIS_STATES, BuiltinModel, Model, builtin_model, compile_rule)
from .relational import Region
from .temporal import Frame, FrameStream


def _spot(cx: float, cy: float) -> Region:
    x, y = int(round(cx)), int(round(cy))
    return Region(id="spot", colour_class="yellow", centroid=(cx, cy), area=9,
                  bbox=(x - 1, y - 1, x + 1, y + 1))


def _static_spot(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    frames = []
    for _ in range(n):
        jx = round(rng.uniform(-0.4, 0.4), 2)
        jy = round(rng.uniform(-0.4, 0.4), 2)
        frames.append((_spot(50.0 + jx, 50.0 + jy),))
    return frames


def _moving_spot(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    # 15 px/frame: beyond both the static epsilon and the matching delta
    return [(_spot(20.0 + 15.0 * i, 50.0),) for i in range(n)]


def _ring_mask(size: int, band: int) -> list[list[int]]:
    """A size x size square of 1s with a square hole of 0s, ``band`` pixels in from each edge."""
    inside = range(band, size - band)
    return [[0 if x in inside and y in inside else 1 for x in range(size)] for y in range(size)]


#: the mask of a solid 3 x 3 region
_BLOCK = [[1, 1, 1]] * 3


def _surround_scene(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    ring_mask = _ring_mask(21, 3)
    ring = Region(id="ring", colour_class="bright", centroid=(30.0, 30.0),
                  area=sum(map(sum, ring_mask)), bbox=(20, 20, 40, 40), mask=ring_mask)
    blob = Region(id="blob", colour_class="dark", centroid=(24.0, 24.0), area=9,
                  bbox=(23, 23, 25, 25), mask=_BLOCK)
    return [(ring, blob)] * n


def _adjacent_scene(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    bright = Region(id="bright", colour_class="bright", centroid=(11.0, 11.0), area=9,
                    bbox=(10, 10, 12, 12), mask=_BLOCK)
    dark = Region(id="dark", colour_class="dark", centroid=(14.0, 11.0), area=9,
                  bbox=(13, 10, 15, 12), mask=_BLOCK)
    return [(bright, dark)] * n


def _empty(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    return [()] * n


SCENARIOS = {
    "static_spot": _static_spot,
    "moving_spot": _moving_spot,
    "surround_scene": _surround_scene,
    "adjacent_scene": _adjacent_scene,
    "empty": _empty,
}


def generate_stream(scenario: str, n_frames: int, *, seed: int = 0) -> FrameStream:
    """Deterministic synthetic stream: same (scenario, seed) -> identical bytes."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{scenario}' (expected one of {', '.join(sorted(SCENARIOS))})")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = random.Random(seed)
    region_sets = SCENARIOS[scenario](rng, n_frames)
    dt = 0.04  # seconds between synthetic frames
    frames = tuple(Frame(i, round(i * dt, 6), regions) for i, regions in enumerate(region_sets))
    return FrameStream(frames, dt)
