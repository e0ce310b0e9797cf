"""Seeded input generator for the four benchmark workloads.

Every input reaches the program only as a file.  The generator plants each
observation on purpose -- which feature region is present, which region a
predicate binds, whether a relation holds -- and keeps every planted relation
value well away from its threshold, so the expected evidence is known without
running any of the program's evaluators.  The same (workload, seed, sizes)
always gives the same bytes.

Pure stdlib: the benchmark's parent process imports this before anything from
the program under test.
"""

from __future__ import annotations

import json
import random
from math import cos, sin, tau
from dataclasses import dataclass, field
from pathlib import Path

DT = 0.04  # camera rate, 25 frames per second

WORKLOADS = ("semi_static_masks", "dynamic_window", "dynamic_check", "wide_infer")

# semi-static model: adjacency threshold and the planted gap ranges on each side of it
SEMI_TAU = 3.5
GAP_HOLDS = (1, 2)          # pixel gaps that must evaluate to holds (<= tau)
GAP_HOLDS_NOT = (6, 11)     # pixel gaps that must evaluate to holds_not (> tau)

# the builtin dirty_lens model's thresholds (epsilon 2 px, matching radius 10 px)
JITTER_MAX = 0.9            # static holds: displacement well under epsilon
JUMP = (4.0, 7.0)           # static holds_not, still matched: between epsilon and delta
TELEPORT = (15.0, 40.0)     # beyond delta: unmatched, the relation stays unobserved
SPOT_AREA = (24, 36)        # consecutive area ratios stay inside the 0.5..2 matching band

HUB_STATES = ("quiet", "active")
LEAF_STATES = ("on", "off")


@dataclass
class Workload:
    """Generated inputs: the op and set-up argv (after the program name), the
    files they name, and the planted truth the oracle compares against."""

    name: str
    op_args: list[str]
    setup_args: list[str]
    files: dict[str, str] = field(default_factory=dict)
    truth: dict = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        for rel, text in self.files.items():
            (directory / rel).write_text(text, encoding="utf-8")


def _prob(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _binary_row(p: float) -> list[float]:
    return [p, round(1.0 - p, 3)]


def _jsonl(header: dict, frames: list[dict]) -> str:
    return "\n".join([json.dumps(header)] + [json.dumps(f) for f in frames]) + "\n"


def _distractor(rng: random.Random, colours: tuple[str, ...]) -> dict:
    w, h = rng.randint(3, 30), rng.randint(3, 30)
    x, y = rng.randint(0, 600), rng.randint(0, 440)
    return {
        "colour_class": rng.choice(colours),
        "centroid": [round(x + (w - 1) / 2, 3), round(y + (h - 1) / 2, 3)],
        "area": rng.randint(1, w * h),
        "bbox": [x, y, x + w - 1, y + h - 1],
    }


def _name_regions(rng: random.Random, regions: list[dict]) -> list[dict]:
    """Give the frame's regions ids r0..rn in a shuffled order, so bindings vary."""
    ids = [f"r{i}" for i in range(len(regions))]
    rng.shuffle(ids)
    return [{"id": rid, **reg} for rid, reg in zip(ids, regions)]


# ---------------------------------------------------------------------------
# semi_static_masks


def _cross_mask(rng: random.Random, h: int, w: int) -> list[list[int]]:
    """Random blob whose centre row and centre column are full, so its extent
    reaches all four bbox edges and its centre row spans the full width."""
    cy, cx = h // 2, w // 2
    return [[1 if (y == cy or x == cx or rng.random() < 0.8) else 0 for x in range(w)]
            for y in range(h)]


def _mask_region(colour: str, mask: list[list[int]], x0: int, y0: int) -> dict:
    pixels = [(x0 + x, y0 + y) for y, row in enumerate(mask) for x, v in enumerate(row) if v]
    n = len(pixels)
    h, w = len(mask), len(mask[0])
    return {
        "colour_class": colour,
        "centroid": [round(sum(p[0] for p in pixels) / n, 3), round(sum(p[1] for p in pixels) / n, 3)],
        "area": n,
        "bbox": [x0, y0, x0 + w - 1, y0 + h - 1],
        "mask": mask,
    }


def _adjacent_pair(rng: random.Random, gap: int) -> tuple[dict, dict]:
    """Two masked regions whose minimum pixel distance is exactly ``gap``.

    The second blob sits beside the first along one axis with their full
    centre lines collinear: the facing edge pixels of those lines are ``gap``
    apart, and no pixel pair can be closer than the bbox gap, which is ``gap``.
    """
    ha, wa, hb, wb = (rng.randint(9, 13) for _ in range(4))
    ma, mb = _cross_mask(rng, ha, wa), _cross_mask(rng, hb, wb)
    ax, ay = rng.randint(40, 560), rng.randint(40, 400)
    side = rng.randrange(4)
    if side == 0:    # b to the right, centre rows aligned
        bx, by = ax + wa - 1 + gap, ay + ha // 2 - hb // 2
    elif side == 1:  # b to the left
        bx, by = ax - gap - (wb - 1), ay + ha // 2 - hb // 2
    elif side == 2:  # b below, centre columns aligned
        bx, by = ax + wa // 2 - wb // 2, ay + ha - 1 + gap
    else:            # b above
        bx, by = ax + wa // 2 - wb // 2, ay - gap - (hb - 1)
    return _mask_region("dark", ma, ax, ay), _mask_region("bright", mb, bx, by)


def semi_static_masks(seed: int, frames: int = 2000, regions: int = 10) -> Workload:
    rng = random.Random(f"semi_static_masks:{seed}")
    persist = _prob(rng, 0.8, 0.95)
    arrive = _prob(rng, 0.05, 0.2)
    model = {
        "type": "semi_static",
        "mode": "paper",
        "transition": [_binary_row(persist), [arrive, round(1.0 - arrive, 3)]],
        "per_frame": {
            "root": "lesion",
            "nodes": [
                {"id": "lesion", "kind": "chance", "states": ["present", "absent"],
                 "prior": _binary_row(_prob(rng, 0.3, 0.7))},
                {"id": "dark_fold", "kind": "chance", "states": ["present", "absent"],
                 "parent": "lesion",
                 "cpt": [_binary_row(_prob(rng, 0.6, 0.85)), _binary_row(_prob(rng, 0.15, 0.4))]},
                {"id": "bright_rim", "kind": "chance", "states": ["present", "absent"],
                 "parent": "lesion",
                 "cpt": [_binary_row(_prob(rng, 0.6, 0.85)), _binary_row(_prob(rng, 0.15, 0.4))]},
                {"id": "touching", "kind": "relation", "states": ["holds", "holds_not"],
                 "parent": "lesion", "evaluator": "adjacent",
                 "inputs": ["dark_fold", "bright_rim"], "params": {"tau": SEMI_TAU},
                 "cpt": [_binary_row(_prob(rng, 0.6, 0.85)), _binary_row(_prob(rng, 0.15, 0.4))]},
            ],
            "bind": {"dark_fold": {"colour_class": "dark"},
                     "bright_rim": {"colour_class": "bright"}},
        },
    }
    colours = ("other", "yellow", "green", "brown")
    lines, planted = [], []
    for i in range(frames):
        gap_holds = rng.random() < 0.5
        gap = rng.randint(*(GAP_HOLDS if gap_holds else GAP_HOLDS_NOT))
        pair = _adjacent_pair(rng, gap)
        dark = pair[0] if rng.random() < 0.85 else None
        bright = pair[1] if rng.random() < 0.85 else None
        regs = [r for r in (dark, bright) if r is not None]
        regs += [_distractor(rng, colours) for _ in range(regions - len(regs))]
        named = _name_regions(rng, regs)
        ids = {id(r): n["id"] for r, n in zip(regs, named)}
        planted.append({
            "dark_fold": ids[id(dark)] if dark is not None else None,
            "bright_rim": ids[id(bright)] if bright is not None else None,
            "touching": (("holds" if gap_holds else "holds_not")
                         if dark is not None and bright is not None else None),
        })
        lines.append({"index": i, "t": round(i * DT, 6), "regions": named})
    return Workload(
        "semi_static_masks",
        op_args=["track", "--spec", "model.json", "--stream", "stream.jsonl"],
        setup_args=["validate", "--spec", "model.json"],
        files={"model.json": json.dumps(model, indent=2) + "\n",
               "stream.jsonl": _jsonl({"dt": DT}, lines)},
        truth={"model": model, "frames": planted},
    )


# ---------------------------------------------------------------------------
# dynamic_window / dynamic_check


def _spot_stream(rng: random.Random, frames: int, regions: int) -> tuple[list[dict], list[dict]]:
    """One spot of a fixed colour that jitters, jumps and drops out, among
    distractors of colour classes the dirty_lens predicate never binds.

    Planted per frame: the bound spot's region id (or None), and the static
    relation with the previous frame (holds, holds_not, or None when either
    spot is missing or the move is beyond the matching radius).
    """
    colour = rng.choice(("yellow", "green", "brown"))
    x, y = rng.uniform(100, 540), rng.uniform(100, 380)
    lines, planted = [], []
    prev_present = False
    for i in range(frames):
        move = rng.random()
        if move < 0.6:
            kind, dist = "holds", rng.uniform(0.0, JITTER_MAX)
        elif move < 0.85:
            kind, dist = "holds_not", rng.uniform(*JUMP)
        else:
            kind, dist = None, rng.uniform(*TELEPORT)
        angle = rng.uniform(0.0, tau)
        nx, ny = x + dist * cos(angle), y + dist * sin(angle)
        if not (20 <= nx <= 620 and 20 <= ny <= 460):   # reflect the move back into view
            nx, ny = x - dist * cos(angle), y - dist * sin(angle)
        x, y = nx, ny
        present = rng.random() < 0.85
        regs = []
        if present:
            area = rng.randint(*SPOT_AREA)
            cx, cy = round(x, 3), round(y, 3)
            regs.append({"colour_class": colour, "centroid": [cx, cy], "area": area,
                         "bbox": [int(cx) - 4, int(cy) - 4, int(cx) + 4, int(cy) + 4]})
        regs += [_distractor(rng, ("dark", "bright", "other")) for _ in range(regions - len(regs))]
        named = _name_regions(rng, regs)
        planted.append({
            "spot": named[0]["id"] if present else None,
            "static": kind if (present and prev_present) else None,
        })
        prev_present = present
        lines.append({"index": i, "t": round(i * DT, 6), "regions": named})
    return lines, planted


def _dynamic(name: str, verb: str, seed: int, frames: int, regions: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    lines, planted = _spot_stream(rng, frames, regions)
    return Workload(
        name,
        op_args=[verb, "--model", "dirty_lens", "--stream", "stream.jsonl"],
        setup_args=["validate", "--model", "dirty_lens"],
        files={"stream.jsonl": _jsonl({"dt": DT}, lines)},
        truth={"frames": planted, "window": 5},
    )


def dynamic_window(seed: int, frames: int = 2000, regions: int = 12) -> Workload:
    return _dynamic("dynamic_window", "track", seed, frames, regions)


def dynamic_check(seed: int, frames: int = 1000, regions: int = 12) -> Workload:
    return _dynamic("dynamic_check", "check", seed, frames, regions)


# ---------------------------------------------------------------------------
# wide_infer


def wide_tree(seed: int, hubs: int = 3, leaves: int = 500, observed: float = 0.4) -> Workload:
    """Root -> ``hubs`` binary hubs -> ``leaves`` binary leaves each.

    Leaf CPT entries stay in [0.2, 0.8] and hubs are binary, so the product of
    500 sibling likelihood messages stays above 1e-170 (seeds 1-40 reach
    1e-160 at worst), far from underflow.
    """
    rng = random.Random(f"wide_infer:{seed}")
    nodes = [{"id": "scene", "kind": "chance", "states": ["calm", "busy"],
              "prior": _binary_row(_prob(rng, 0.2, 0.8))}]
    assignments = {}
    for j in range(hubs):
        hub = f"hub{j}"
        nodes.append({"id": hub, "kind": "chance", "states": list(HUB_STATES), "parent": "scene",
                      "cpt": [_binary_row(_prob(rng, 0.2, 0.8)) for _ in range(2)]})
        for i in range(leaves):
            leaf = f"{hub}_leaf{i}"
            nodes.append({"id": leaf, "kind": "chance", "states": list(LEAF_STATES),
                          "parent": hub,
                          "cpt": [_binary_row(_prob(rng, 0.2, 0.8)) for _ in HUB_STATES]})
            if rng.random() < observed:
                assignments[leaf] = rng.choice(LEAF_STATES)
    spec = {"root": "scene", "nodes": nodes}
    evidence = {"assignments": assignments}
    return Workload(
        "wide_infer",
        op_args=["infer", "--spec", "tree.json", "--scene", "evidence.json"],
        setup_args=["validate", "--spec", "tree.json"],
        files={"tree.json": json.dumps(spec, indent=2) + "\n",
               "evidence.json": json.dumps(evidence, indent=2) + "\n"},
        truth={"spec": spec, "evidence": assignments},
    )


GENERATORS = {
    "semi_static_masks": semi_static_masks,
    "dynamic_window": dynamic_window,
    "dynamic_check": dynamic_check,
    "wide_infer": wide_tree,
}


def generate(name: str, seed: int, **sizes) -> Workload:
    """The named workload's inputs for ``seed``; ``sizes`` shrink it for tests."""
    return GENERATORS[name](seed, **sizes)
