"""The generator is deterministic and its planted truths hold."""

import json
import math

import pytest

import workloads
from workloads import GAP_HOLDS, GAP_HOLDS_NOT, JITTER_MAX, JUMP, SEMI_TAU, TELEPORT

SMALL = {
    "semi_static_masks": {"frames": 60},
    "dynamic_window": {"frames": 80},
    "dynamic_check": {"frames": 40},
    "wide_infer": {"leaves": 30},
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes(name):
    a = workloads.generate(name, 7, **SMALL[name])
    b = workloads.generate(name, 7, **SMALL[name])
    c = workloads.generate(name, 8, **SMALL[name])
    assert a.files == b.files and a.truth == b.truth
    assert a.files != c.files


def test_full_size_is_deterministic():
    a = workloads.generate("dynamic_check", 3)
    assert a.files == workloads.generate("dynamic_check", 3).files
    assert len(a.files["stream.jsonl"].splitlines()) == 1 + 1000


def _mask_pixels(region):
    x0, y0 = region["bbox"][:2]
    return [(x0 + x, y0 + y) for y, row in enumerate(region["mask"])
            for x, v in enumerate(row) if v]


def test_semi_static_gaps_are_planted_exactly():
    w = workloads.generate("semi_static_masks", 11, frames=80)
    lines = [json.loads(ln) for ln in w.files["stream.jsonl"].splitlines()[1:]]
    seen = set()
    for line, truth in zip(lines, w.truth["frames"]):
        regions = {r["id"]: r for r in line["regions"]}
        assert len(regions) == 10
        for fid, colour in (("dark_fold", "dark"), ("bright_rim", "bright")):
            bound = [r["id"] for r in regions.values() if r["colour_class"] == colour]
            assert bound == ([truth[fid]] if truth[fid] is not None else [])
        if truth["touching"] is None:
            continue
        a, b = _mask_pixels(regions[truth["dark_fold"]]), _mask_pixels(regions[truth["bright_rim"]])
        gap = min(math.dist(p, q) for p in a for q in b)
        low, high = (GAP_HOLDS if truth["touching"] == "holds" else GAP_HOLDS_NOT)
        assert low <= gap <= high
        assert (gap <= SEMI_TAU) == (truth["touching"] == "holds")
        seen.add(truth["touching"])
    assert seen == {"holds", "holds_not"}


def test_spot_moves_stay_clear_of_thresholds():
    w = workloads.generate("dynamic_window", 5, frames=300)
    lines = [json.loads(ln) for ln in w.files["stream.jsonl"].splitlines()[1:]]
    prev = None
    kinds = set()
    for line, truth in zip(lines, w.truth["frames"]):
        spots = [r for r in line["regions"] if r["colour_class"] in ("yellow", "green", "brown")]
        assert [r["id"] for r in spots] == ([truth["spot"]] if truth["spot"] else [])
        spot = spots[0] if spots else None
        if spot is not None and prev is not None:
            d = math.dist(spot["centroid"], prev["centroid"])
            ratio = spot["area"] / prev["area"]
            assert 0.5 < ratio < 2.0
            if truth["static"] == "holds":
                assert d <= JITTER_MAX + 0.01
            elif truth["static"] == "holds_not":
                assert JUMP[0] - 0.01 <= d <= JUMP[1] + 0.01
            else:
                assert d >= TELEPORT[0] - 0.01
        else:
            assert truth["static"] is None
        kinds.add(truth["static"])
        prev = spot
    assert kinds == {"holds", "holds_not", None}
