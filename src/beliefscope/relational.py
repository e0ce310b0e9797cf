"""Image regions, deterministic relation evaluators, and the instantiation transform.

A relation node's value is a function of its input regions, so it is computed
from the scene and clamped as evidence; what remains is an ordinary tree
network in which the relation node is just another observed child of the
hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import SpecSyntaxError
from .network import (
    ABSENT,
    COLOUR_CLASSES,
    FAR,
    HOLDS,
    HOLDS_NOT,
    NEAR,
    PRESENT,
    RELATION_STATES,
    EvidenceSet,
    Network,
    NetworkSpec,
    finite_number,
    load_json,
    relational_diagnostics,
    strict_int,
    validate_network,
)

DEFAULT_TAU = 2.0
DEFAULT_EPSILON = 2.0

_REGION_KEYS = frozenset({"id", "colour_class", "centroid", "area", "bbox", "mask"})
_REQUIRED_KEYS = _REGION_KEYS - {"mask"}
_LIST, _INT = {list}, {int}

#: region integers (area, bbox entries) must lie within ±EXACT_INT: a float
#: holds every such integer exactly, so the evaluators' arithmetic cannot overflow
EXACT_INT = 2**53


@dataclass(frozen=True, eq=False)
class Region:
    """A detected image region.

    ``bbox`` is (xmin, ymin, xmax, ymax) in inclusive pixel coordinates; a
    mask, when present, is a boolean grid of shape (height, width) aligned to
    the bbox and indexed [y - ymin, x - xmin].
    """

    id: str
    colour_class: str
    centroid: tuple[float, float]
    area: int
    bbox: tuple[int, int, int, int]
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.colour_class not in COLOUR_CLASSES:
            raise ValueError(f"region '{self.id}': unknown colour class '{self.colour_class}'")
        if self.area < 1:
            raise ValueError(f"region '{self.id}': area must be >= 1")
        xmin, ymin, xmax, ymax = self.bbox
        if xmin > xmax or ymin > ymax:
            raise ValueError(f"region '{self.id}': bbox not well-ordered")
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            object.__setattr__(self, "mask", mask)
            h, w = ymax - ymin + 1, xmax - xmin + 1
            if mask.shape != (h, w):
                raise ValueError(f"region '{self.id}': mask shape {mask.shape} does not match bbox {h}x{w}")
            pixels = np.count_nonzero(mask)
            if pixels != self.area:
                raise ValueError(f"region '{self.id}': mask has {pixels} pixels, area is {self.area}")
            flat = mask.tobytes()  # one byte per pixel, row by row: slices are rows and columns
            if not (any(flat[:w]) and any(flat[-w:]) and any(flat[::w]) and any(flat[w - 1::w])):
                raise ValueError(f"region '{self.id}': mask extent does not reach the bbox")

    def pixels(self, window: tuple[int, int, int, int] | None = None, *,
               edge: bool = False) -> np.ndarray:
        """Absolute (x, y) coordinates of set mask pixels, as floats; requires a
        mask.  With ``window`` (inclusive bounds, like ``bbox``) only the pixels
        inside it, none when it misses the bbox.  With ``edge`` only those with
        a 4-neighbour outside the (cropped) mask."""
        xn, yn, xx, yx = self.bbox
        if window is not None:
            xn, yn = max(xn, window[0]), max(yn, window[1])
            xx, yx = min(xx, window[2]), min(yx, window[3])
            if xn > xx or yn > yx:
                return np.empty((0, 2))
        x0, y0 = self.bbox[0], self.bbox[1]
        mask = self.mask[yn - y0 : yx - y0 + 1, xn - x0 : xx - x0 + 1]
        if edge:
            inner = np.zeros_like(mask)
            inner[1:-1, 1:-1] = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                                 & mask[1:-1, :-2] & mask[1:-1, 2:])
            mask = mask & ~inner
        ys, xs = np.nonzero(mask)
        return np.stack([xs + xn, ys + yn], axis=1).astype(float)


def _bit_grid(mask, h: int, w: int) -> np.ndarray:
    """``mask`` as a bool array of shape (h, w).

    ValueError unless it is a list of h lists of w entries, each the integer
    0 or 1.  Every pass over the entries runs in C: the type pass rejects
    ``true`` and ``1.0``, which compare equal to 1, and ``bytes`` rejects
    integers outside 0..255.
    """
    if not (type(mask) is list and len(mask) == h and set(map(type, mask)) <= _LIST
            and set(map(len, mask)) <= {w} and set(map(type, chain.from_iterable(mask))) <= _INT):
        raise ValueError("not a grid of integers")
    bits = bytes(chain.from_iterable(mask))
    if bits.strip(b"\0\1"):
        raise ValueError("not a grid of 0 and 1")
    return np.frombuffer(bits, dtype=bool).reshape(h, w).copy()  # owns its pixels, like np.asarray


def region_from_document(obj) -> Region:
    """The Region a scene or stream document describes.

    The common shape is checked inline: a dict with known keys, a string id,
    a finite float centroid, integer area and bbox entries within
    ±``EXACT_INT`` and a 0/1 mask.  Anything else falls through to the
    per-field checks below, which exist only to name the error, so an
    accepted region is the same on either path.
    """
    if type(obj) is dict and _REQUIRED_KEYS <= obj.keys() <= _REGION_KEYS:
        rid, colour, c, area, b = (obj["id"], obj["colour_class"], obj["centroid"],
                                    obj["area"], obj["bbox"])
        mask = obj.get("mask")
        if type(rid) is str and type(c) is list and len(c) >= 2 and type(b) is list and len(b) == 4:
            x, y = c[0], c[1]
            xmin, ymin, xmax, ymax = b
            if (type(x) is float and x - x == 0.0 and type(y) is float and y - y == 0.0
                    and type(area) is int and type(xmin) is int and type(ymin) is int
                    and type(xmax) is int and type(ymax) is int and area <= EXACT_INT
                    and -EXACT_INT <= xmin and xmax <= EXACT_INT
                    and -EXACT_INT <= ymin and ymax <= EXACT_INT):
                try:
                    return Region(rid, colour, (x, y), area, (xmin, ymin, xmax, ymax),
                                  None if mask is None
                                  else _bit_grid(mask, ymax - ymin + 1, xmax - xmin + 1))
                except ValueError:
                    pass  # named below

    if not isinstance(obj, dict):
        raise SpecSyntaxError("region entries must be objects")
    for key in obj:
        if key not in _REGION_KEYS:
            raise SpecSyntaxError(f"region: unknown field '{key}'")
    try:
        if not isinstance(obj["id"], str):
            raise SpecSyntaxError("region: 'id' must be a string")
        mask = obj.get("mask")
        region = Region(
            id=obj["id"],
            colour_class=obj["colour_class"],
            centroid=(finite_number(obj["centroid"][0], "region: 'centroid'"),
                      finite_number(obj["centroid"][1], "region: 'centroid'")),
            area=strict_int(obj["area"], "region: 'area'"),
            bbox=tuple(strict_int(v, "region: 'bbox' entry") for v in obj["bbox"]),
            mask=np.asarray(mask, dtype=bool) if mask is not None else None,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SpecSyntaxError(f"malformed region entry: {exc}") from None
    except ValueError as exc:
        raise SpecSyntaxError(str(exc)) from None
    if region.area > EXACT_INT:
        raise SpecSyntaxError(f"region '{region.id}': 'area' must be an integer in [-2**53, 2**53]")
    if not all(-EXACT_INT <= v <= EXACT_INT for v in region.bbox):
        raise SpecSyntaxError(f"region '{region.id}': 'bbox' entries must be integers in [-2**53, 2**53]")
    if mask is not None:
        try:
            _bit_grid(mask, *region.mask.shape)
        except ValueError:
            raise SpecSyntaxError(f"region '{region.id}': mask entries must be 0 or 1") from None
    return region


def region_to_document(region: Region) -> dict:
    doc: dict[str, Any] = {
        "id": region.id,
        "colour_class": region.colour_class,
        "centroid": [region.centroid[0], region.centroid[1]],
        "area": region.area,
        "bbox": list(region.bbox),
    }
    if region.mask is not None:
        doc["mask"] = region.mask.astype(int).tolist()
    return doc


def parse_scene(text: str) -> tuple[Region, ...]:
    doc = load_json(text)
    if not (isinstance(doc, dict) and set(doc) == {"regions"} and isinstance(doc["regions"], list)):
        raise SpecSyntaxError('scene document must be {"regions": [...]}')
    regions = tuple(region_from_document(obj) for obj in doc["regions"])
    seen = set()
    for r in regions:
        if r.id in seen:
            raise SpecSyntaxError(f"duplicate region id '{r.id}'")
        seen.add(r.id)
    return regions


def scene_to_document(regions: Sequence[Region]) -> dict:
    return {"regions": [region_to_document(r) for r in regions]}


# ---------------------------------------------------------------------------
# relation evaluators


def _euclid(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _bbox_strictly_inside(inner, outer) -> bool:
    ixn, iyn, ixx, iyx = inner
    oxn, oyn, oxx, oyx = outer
    return oxn < ixn and ixx < oxx and oyn < iyn and iyx < oyx


def _masks_overlap(a: Region, b: Region) -> bool:
    axn, ayn, axx, ayx = a.bbox
    bxn, byn, bxx, byx = b.bbox
    xn, xx = max(axn, bxn), min(axx, bxx)
    yn, yx = max(ayn, byn), min(ayx, byx)
    if xn > xx or yn > yx:
        return False
    sa = a.mask[yn - ayn : yx - ayn + 1, xn - axn : xx - axn + 1]
    sb = b.mask[yn - byn : yx - byn + 1, xn - bxn : xx - bxn + 1]
    return bool((sa & sb).any())


def _four_rays_hit(a: Region, b: Region) -> bool:
    """Do the four axis rays from b's centroid to a's bbox edges all cross a's mask?"""
    axn, ayn, axx, ayx = a.bbox
    px = int(round(b.centroid[0]))
    py = int(round(b.centroid[1]))
    if not (axn <= px <= axx and ayn <= py <= ayx):
        return False
    row = a.mask[py - ayn]
    col = a.mask[:, px - axn]
    return bool(
        row[: px - axn + 1].any()
        and row[px - axn :].any()
        and col[: py - ayn + 1].any()
        and col[py - ayn :].any()
    )


def _bbox_gap(a_bbox, b_bbox) -> float:
    axn, ayn, axx, ayx = a_bbox
    bxn, byn, bxx, byx = b_bbox
    dx = max(0, bxn - axx, axn - bxx)
    dy = max(0, byn - ayx, ayn - byx)
    return math.hypot(dx, dy)


#: pixel-pair blocks compared at once by the adjacency test: at most this
#: many pixels of each region, so a block holds at most its square in pairs
_PAIR_BLOCK = 256


def _within(a: Region, b: Region, tau: float) -> bool:
    """Is the minimum inter-mask distance (inter-bbox without both masks) <= tau?

    No pixel pair is closer than the bbox gap (the hypot of two integer
    offsets is their correctly rounded distance), so a gap beyond tau decides
    at once.  Otherwise a pixel within tau of the other region lies inside
    that region's bbox grown by floor(tau), so only those pixels are kept.
    When they make more than one block of pairs, only their edge pixels are
    kept, unless the masks overlap (distance 0): a closest pixel of disjoint
    masks has a 4-neighbour outside its own mask, since one step towards the
    other pixel along an axis on which they differ would be strictly closer.
    The pairs are compared a fixed-size block at a time until one is within
    tau, so time goes with the perimeters and memory stays bounded however
    large the masks.
    """
    gap = _bbox_gap(a.bbox, b.bbox)
    if gap > tau or a.mask is None or b.mask is None:
        return gap <= tau
    r = math.floor(tau)
    near_b = (b.bbox[0] - r, b.bbox[1] - r, b.bbox[2] + r, b.bbox[3] + r)
    near_a = (a.bbox[0] - r, a.bbox[1] - r, a.bbox[2] + r, a.bbox[3] + r)
    pa, pb = a.pixels(near_b), b.pixels(near_a)
    if len(pa) * len(pb) > _PAIR_BLOCK ** 2:
        if _masks_overlap(a, b):
            return True
        pa, pb = a.pixels(near_b, edge=True), b.pixels(near_a, edge=True)
    for i in range(0, len(pa), _PAIR_BLOCK):
        for j in range(0, len(pb), _PAIR_BLOCK):
            d2 = ((pa[i:i + _PAIR_BLOCK, None, :] - pb[None, j:j + _PAIR_BLOCK, :]) ** 2
                  ).sum(axis=-1)
            if math.sqrt(d2.min()) <= tau:
                return True
    return False


def eval_relation(kind: str, a: Region, b: Region, *,
                  tau: float = DEFAULT_TAU, epsilon: float = DEFAULT_EPSILON) -> str:
    """Deterministic relation value between two regions, as a state label.

    surrounding: requires disjoint masks, b's bbox strictly inside a's, and a
    mask hit on each of the four axis rays from b's centroid to a's bbox edge;
    without both masks it degrades to strict bbox containment.  adjacent:
    minimum inter-mask (or inter-bbox) distance <= tau.  distance: centroid
    distance binned at tau into near/far.  static: centroid displacement of
    two matched instances of the same region <= epsilon.
    """
    if kind not in RELATION_STATES:
        raise ValueError(f"unknown evaluator '{kind}'")
    if not (0 < tau < math.inf and 0 < epsilon < math.inf):
        raise ValueError("relation params must be strictly positive and finite")

    if kind == "surrounding":
        if not _bbox_strictly_inside(b.bbox, a.bbox):
            return HOLDS_NOT
        if a.mask is None or b.mask is None:
            return HOLDS
        if _masks_overlap(a, b):
            return HOLDS_NOT
        return HOLDS if _four_rays_hit(a, b) else HOLDS_NOT
    if kind == "adjacent":
        return HOLDS if _within(a, b, tau) else HOLDS_NOT
    if kind == "distance":
        return NEAR if _euclid(a.centroid, b.centroid) <= tau else FAR
    # static
    if a.colour_class != b.colour_class:
        raise ValueError(
            f"static relation applied to unmatched regions '{a.id}'/'{b.id}' "
            f"({a.colour_class} vs {b.colour_class})")
    return HOLDS if _euclid(a.centroid, b.centroid) <= epsilon else HOLDS_NOT


# ---------------------------------------------------------------------------
# the instantiation transform


def select_region(pred: Mapping[str, Any], regions: Sequence[Region]) -> Region | None:
    """The region bound by a predicate: largest area, ties to lowest id.

    The predicate is read once into (attribute, admitted values) pairs, a
    single value admitting just itself; one pass over the regions keeps the
    best match by (-area, id), so binding a frame costs one comparison per
    region and no sort.
    """
    tests = [(attr, tuple(want) if isinstance(want, (tuple, list)) else (want,))
             for attr, want in pred.items()]
    best = None
    for r in regions:
        for attr, admitted in tests:
            if getattr(r, attr) not in admitted:
                break
        else:
            if best is None or r.area > best.area or (r.area == best.area and r.id < best.id):
                best = r
    return best


def bind_features(spec: NetworkSpec, regions: Sequence[Region]) -> dict[str, Region | None]:
    """Bind each feature predicate per :func:`select_region`."""
    return {fid: select_region(pred, regions) for fid, pred in spec.bind.items()}


def relation_evidence(spec: NetworkSpec, bound: Mapping[str, Region | None], *,
                      tau: float | None = None, epsilon: float | None = None) -> EvidenceSet:
    """The evidence a scene gives a relational spec, from its bound regions
    (as :func:`bind_features` returns them).

    Every bound feature is clamped to present/absent and every fully-bound
    relation node to its evaluated value.  Relation nodes with an unmatched
    input stay unobserved: the feature node already carries the absence
    evidence, and clamping the relation too would double-count it.

    ``tau``/``epsilon`` override the per-node params (used by CLI flags).
    """
    assignments: dict[str, str] = {}
    for fid in spec.bind:
        assignments[fid] = PRESENT if bound[fid] is not None else ABSENT
    for n in spec.nodes:
        if n.kind != "relation":
            continue
        pair = [bound.get(i) for i in n.inputs]
        if any(r is None for r in pair):
            continue
        assignments[n.id] = eval_relation(
            n.evaluator, pair[0], pair[1],
            tau=tau if tau is not None else n.params.get("tau", DEFAULT_TAU),
            epsilon=epsilon if epsilon is not None else n.params.get("epsilon", DEFAULT_EPSILON),
        )
    return EvidenceSet(assignments)


def relationalize(spec: NetworkSpec, regions: Sequence[Region], *,
                  tau: float | None = None, epsilon: float | None = None,
                  ) -> tuple[Network, EvidenceSet]:
    """Instantiate relation nodes from the scene and drop the functional links.

    :func:`validate_network` (which checks the relational invariants too)
    plus the scene's :func:`relation_evidence`: the plain tree network
    (relation CPTs intact) and the evidence that clamps it.
    """
    return validate_network(spec), relation_evidence(spec, bind_features(spec, regions),
                                                     tau=tau, epsilon=epsilon)
