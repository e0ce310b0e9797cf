"""Image regions, deterministic relation evaluators, and the instantiation transform.

A relation node's value is a function of its input regions, so it is computed
from the scene and clamped as evidence; what remains is an ordinary tree
network in which the relation node is just another observed child of the
hypothesis.

A region's mask is a Python int bitset, one bit a pixel of its bbox, and every
mask relation is decided with integer shifts and ANDs: no numpy is imported, and
a scene or stream is checked, bound and evaluated on Python values alone.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat
from operator import contains, is_not, itemgetter, le
from typing import Any, Collection, Mapping, Sequence

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
    CUT,
    _DICT,
    _INT,
    _LIST,
    _NUMBER,
    _STR,
    EvidenceSet,
    Network,
    NetworkSpec,
    finite_number,
    record,
    strict_int,
    validate_network,
)
from .network import relational_diagnostics  # patched here by bench/tracing.py's TARGETS

DEFAULT_TAU = 2.0
DEFAULT_EPSILON = 2.0

_REGION_KEYS = frozenset({"id", "colour_class", "centroid", "area", "bbox", "mask"})

#: region integers (area, bbox entries) must lie within ±EXACT_INT: a float
#: holds every such integer exactly, so the evaluators' arithmetic cannot overflow
EXACT_INT = 2**53


@record
class Region:
    """A detected image region.

    ``bbox`` is (xmin, ymin, xmax, ymax) in inclusive pixel coordinates; a
    mask, when present, is an int bitset aligned to the bbox: bit
    ``(y - ymin) * w + (x - xmin)`` is pixel (x, y), w being the bbox's width.

    ``Region(...)`` takes the mask as that int or as a grid of truthy entries
    (nested lists or a numpy array, read as numpy reads a bool array) and
    checks every field, the mask's shape, pixel count and extent too.  A
    parsed scene's or stream's regions, the rows of a :class:`RegionTable`,
    are built without them (:meth:`RegionTable._region`): the table's column
    passes and :func:`_bit_grid` have made each check once.
    """

    id: str
    colour_class: str
    centroid: tuple[float, float]
    area: int
    bbox: tuple[int, int, int, int]
    mask: int | None = None

    def __post_init__(self):
        if self.colour_class not in COLOUR_CLASSES:
            raise ValueError(f"region '{self.id}': unknown colour class '{self.colour_class}'")
        if self.area < 1:
            raise ValueError(f"region '{self.id}': area must be >= 1")
        xmin, ymin, xmax, ymax = self.bbox
        if xmin > xmax or ymin > ymax:
            raise ValueError(f"region '{self.id}': bbox not well-ordered")
        if self.mask is not None:
            h, w = ymax - ymin + 1, xmax - xmin + 1
            if type(self.mask) is not int:
                shape, entries = _grid(self.mask.tolist() if hasattr(self.mask, "tolist") else self.mask)
                if shape is None:
                    raise ValueError(f"region '{self.id}': mask is not a grid of {h} rows of {w} entries")
                if shape != (h, w):
                    raise ValueError(f"region '{self.id}': mask shape {shape} does not match bbox {h}x{w}")
                object.__setattr__(self, "mask", int(bytes(map(bool, reversed(entries))).translate(_DIGITS), 2))
            elif self.mask < 0 or self.mask.bit_length() > h * w:
                raise ValueError(f"region '{self.id}': mask has bits outside its {h}x{w} bbox")
            pixels, n = self.mask.bit_count(), self.mask.bit_length()
            if pixels != self.area:
                raise ValueError(f"region '{self.id}': mask has {pixels} pixels, area is {self.area}")
            # a pixel in the last row and one in the last column set bits past w * (h - 1) and w - 1,
            # so h * w < 2 * n before the digits are padded; they run from the last pixel, a 180° turn
            if not (n > w * (h - 1) and n >= w and _fills(format(self.mask, "b").encode().zfill(h * w), w)):
                raise ValueError(f"region '{self.id}': mask extent does not reach the bbox")


_ROWS = {list, tuple}  # the rows numpy reads: every other value is an entry
#: one byte a pixel, 0 or 1, as the ASCII digits ``int(..., 2)`` reads
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _grid(nested) -> tuple[tuple[int, ...] | None, list]:
    """The shape numpy gives the array of ``nested`` rows, found a level at a
    time, and its entries in row order; a None shape where numpy refuses it:
    ragged rows, rows beside entries, or past its 64 dimensions."""
    shape, level = [], [nested]
    while level and set(map(type, level)) <= _ROWS:
        sizes = set(map(len, level))
        if len(sizes) > 1 or len(shape) == 64:
            return None, []
        shape.append(sizes.pop())
        level = list(chain.from_iterable(level))
    if not _ROWS.isdisjoint(map(type, level)):
        return None, []
    return tuple(shape), level


def _fills(digits: bytes, w: int) -> bool:
    """Do the ASCII 0/1 digits of a mask w pixels wide, row by row, hold a 1 on
    each edge of its bbox?"""
    return 49 in digits[:w] and 49 in digits[-w:] and 49 in digits[::w] and 49 in digits[w - 1::w]


def _cropped(r: Region, box: tuple[int, int, int, int]) -> tuple[list[str], int, int]:
    """The rows of r's mask inside ``box`` (inclusive bounds, like ``bbox``;
    it must meet the bbox), as strings of 0/1 digits pixel by pixel, and the
    (x, y) of the crop's first pixel."""
    xmin, ymin, xmax, ymax = r.bbox
    x0, y0, x1, y1 = max(box[0], xmin), max(box[1], ymin), min(box[2], xmax), min(box[3], ymax)
    w, digits = xmax - xmin + 1, format(r.mask, "b")[::-1]  # pixel by pixel, up to the last set one
    return [digits[(y - ymin) * w + x0 - xmin:(y - ymin) * w + x1 - xmin + 1].ljust(x1 - x0 + 1, "0")
            for y in range(y0, y1 + 1)], x0, y0


def _bit_grid(text: str, h: int, w: int, area: int) -> int:
    """The int mask of an h x w mask's ``json.dumps`` text, cut
    (:func:`cut_masks`) or written back.  ValueError unless, its 0s made 1s, it
    is the text of the h x w grid of 1s (``true``, ``1.0``, ``"1"`` or ``2`` is
    written otherwise) and its ``area`` ones reach all four edges: checked on
    its length first, then on its bytes in C."""
    raw = text.encode()
    if len(raw) != h * (3 * w + 2) or raw.replace(b"0", b"1") != (
            b"[" + b", ".join([b"[" + b"1, " * (w - 1) + b"1]"] * h) + b"]"):
        raise ValueError("not a grid of 0 and 1 of the bbox's shape")
    bits = raw.translate(None, b"[], ")  # one ASCII digit a pixel, row by row
    if bits.count(49) != area or not _fills(bits, w):
        raise ValueError("not the area's pixels, reaching every edge of the bbox")
    return int(bits[::-1], 2)


#: a mask after its key as ``json.dumps`` writes them, found here and checked by _bit_grid
_MASK_TEXT = re.compile(r'"mask": (\[\[[][01, ]*\]\])')


def cut_masks(lines: list[str]) -> tuple[list[str], list[str]]:
    """``lines`` with each mask :data:`_MASK_TEXT` finds cut out for a NaN token,
    and the cuts in order; ``lines`` and no cuts if none holds ``"mask": [[``.

    A cut is the value of a key ``mask`` or of one ending in ``\\"mask``: the
    quote after ``mask`` is not escaped, so it ends a string, which the ``:``
    makes a key.  In lines the columns accept, every value is typed but a
    centroid's entries past its first two, which :meth:`RegionTable.checked`
    refuses beside cuts, so each NaN (:data:`~beliefscope.network.CUT`) is a
    region's mask.  As ``load_json`` keeps every value, masks that hold as many
    CUTs as there are cuts held no NaN of their own, and the k-th is the k-th
    cut.  A cut :func:`_bit_grid` accepts is an array: the lines decode alike.
    """
    if not any(map(contains, lines, repeat('"mask": [['))):
        return lines, []
    texts, cuts = [], []
    for parts in map(_MASK_TEXT.split, lines):  # a line at a time: no second copy of the chunk
        texts.append('"mask": NaN'.join(parts[::2]))
        cuts += parts[1::2]
    return texts, cuts


def region_from_document(obj) -> Region:
    """The Region a region document describes, checked field by field: the
    path that names what is wrong with a scene or stream document
    :meth:`RegionTable.checked` turned down."""
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
            mask=bool(mask) if type(mask) is int else mask,  # a grid's number, shape (), not a bitset
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
            xmin, ymin, xmax, ymax = region.bbox
            _bit_grid(json.dumps(mask), ymax - ymin + 1, xmax - xmin + 1, region.area)
        except (ValueError, RecursionError):
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
        doc["mask"] = [list(map(int, row)) for row in _cropped(region, region.bbox)[0]]
    return doc


_COLOUR_CODE = {c: i for i, c in enumerate(COLOUR_CLASSES)}
_FLOAT = {float}
_FIELDS = tuple(map(itemgetter, ("id", "colour_class", "centroid", "area", "bbox")))
_XY = itemgetter(slice(0, 2))


class RegionTable:
    """Groups of regions (a scene, or a chunk of a stream's frames) held as
    columns: ids, colour codes, flat centroid floats, areas, flat bbox ints and
    checked int masks.  The numbers are checked as lists and kept as
    ``bytes`` and ``array`` columns, a few bytes a row.  A row's Region is built
    when it is first read, once, so the Regions of a group keep their identity
    however they are read."""

    def __init__(self, ids: list[str], codes: bytes, xy: array, areas: array,
                 corners: array, bounds: list[int], grids: dict[int, int]):
        self._ids, self._codes, self._xy, self._areas = ids, codes, xy, areas
        self._corners, self._bounds, self._grids = corners, bounds, grids
        self._built: dict[int, Region] = {}
        self._by_classes: dict[frozenset, list[tuple[Region, ...]]] = {}

    @classmethod
    def checked(cls, groups: Sequence[Sequence], cuts: Sequence[str] = ()) -> RegionTable | None:
        """The table of ``groups``, sequences of region documents; None unless
        every document describes a region and no group repeats an id.

        Every check :func:`region_from_document` makes runs as one C pass
        over a column: types by ``set(map(type, ...))``, keys by counting
        them, finite centroids by ``math.isfinite``, ranges by ``min`` and
        ``max``, and bbox order by ``operator.le`` over the corners.  A mask is
        checked once by :func:`_bit_grid` on its text, the next of ``cuts``
        where it is CUT (:func:`cut_masks`), else its ``json.dumps``, and its
        int kept for the row.  Nothing is built here: :meth:`group` builds the
        rows.  On None the caller names the error through
        :func:`region_from_document`.
        """
        counts = list(map(len, groups))
        rows = list(chain.from_iterable(groups))
        m = len(rows)
        if not set(map(type, rows)) <= _DICT:
            return None
        try:
            ids, colours, centroids, areas, bboxes = (list(map(f, rows)) for f in _FIELDS)
        except KeyError:
            return None
        if (sum(map(len, rows)) != 5 * m + sum(map(contains, rows, repeat("mask")))
                or not (set(map(type, ids)) <= _STR and set(map(type, areas)) <= _INT
                        and set(map(type, centroids)) <= _LIST and set(map(type, bboxes)) <= _LIST
                        and set(map(len, bboxes)) <= {4} and min(map(len, centroids), default=2) >= 2)):
            return None
        xy = list(chain.from_iterable(map(_XY, centroids)))
        corners = list(chain.from_iterable(bboxes))
        xy_types = set(map(type, xy))
        if not (xy_types <= _NUMBER and set(map(type, corners)) <= _INT):
            return None
        try:
            codes = bytes(map(_COLOUR_CODE.__getitem__, colours))
            if not xy_types <= _FLOAT:
                xy = list(map(float, xy))
        except (KeyError, TypeError, OverflowError):  # an unknown or unhashable class, an int past float
            return None
        bounds = list(accumulate(counts, initial=0))
        left, top, right, bottom = (corners[j::4] for j in range(4))
        if not (all(map(math.isfinite, xy)) and min(areas, default=1) >= 1
                and max(areas, default=1) <= EXACT_INT
                and all(map(le, left, right)) and all(map(le, top, bottom))  # so low corners hold the min
                and -EXACT_INT <= min(min(left, default=0), min(top, default=0))
                and max(max(right, default=0), max(bottom, default=0)) <= EXACT_INT
                and sum(map(len, map(set, map(ids.__getitem__, map(slice, bounds, bounds[1:]))))) == m):
            return None
        masks = list(map(dict.get, rows, repeat("mask")))
        if masks.count(CUT) != len(cuts) or cuts and max(map(len, centroids)) > 2:
            return None
        cut, grids = iter(cuts), {}
        for i in compress(range(m), map(is_not, masks, repeat(None))):
            xmin, ymin, xmax, ymax = bboxes[i]
            try:
                grids[i] = _bit_grid(next(cut) if masks[i] is CUT else json.dumps(masks[i]),
                                     ymax - ymin + 1, xmax - xmin + 1, areas[i])
            except (ValueError, TypeError, RecursionError):  # TypeError: a CUT within a mask
                return None
        return cls(ids, codes, array("d", xy), array("q", areas), array("q", corners), bounds, grids)

    @staticmethod
    def _region(id: str, colour_class: str, centroid: tuple[float, float], area: int,
                bbox: tuple[int, int, int, int], mask: int | None = None) -> Region:
        """The Region of a row whose fields the table has checked, built
        without :meth:`Region.__post_init__`.  The fields are set in
        declaration order, as the record's ``__init__`` sets them, so the
        instances still share their dicts' keys."""
        region = object.__new__(Region)
        put = object.__setattr__
        put(region, "id", id)
        put(region, "colour_class", colour_class)
        put(region, "centroid", centroid)
        put(region, "area", area)
        put(region, "bbox", bbox)
        put(region, "mask", mask)
        return region

    def _rows(self, rows: Sequence[int]) -> list[Region]:
        built = self._built
        new = [i for i in rows if i not in built]
        if new:
            ids, codes, xy, areas, corners = self._ids, self._codes, self._xy, self._areas, self._corners
            grids, region = self._grids, self._region
            for i in new:
                built[i] = region(ids[i], COLOUR_CLASSES[codes[i]], (xy[2 * i], xy[2 * i + 1]), areas[i],
                                  tuple(corners[4 * i:4 * i + 4]), grids.get(i))
        return [built[i] for i in rows]

    def group(self, k: int, classes: Collection[str] = COLOUR_CLASSES) -> tuple[Region, ...]:
        """The Regions of group ``k`` whose colour class is in ``classes``, in
        document order.  The first call for a set of classes builds the rows
        of those classes in every group; no other row is built."""
        key = frozenset(classes)
        groups = self._by_classes.get(key)
        if groups is None:
            wanted = {_COLOUR_CODE[c] for c in key if c in _COLOUR_CODE}
            rows = list(compress(range(len(self._codes)), map(wanted.__contains__, self._codes)))
            regions = self._rows(rows)
            cuts = [bisect_left(rows, b) for b in self._bounds]
            groups = self._by_classes[key] = [tuple(regions[a:b]) for a, b in zip(cuts, cuts[1:])]
        return groups[k]


def scene_from_document(doc) -> tuple[Region, ...]:
    """The regions of a scene document, the rows of a :class:`RegionTable`; one
    it turns down is read region by region only to name its first error."""
    if not (isinstance(doc, dict) and set(doc) == {"regions"} and isinstance(doc["regions"], list)):
        raise SpecSyntaxError('scene document must be {"regions": [...]}')
    table = RegionTable.checked([doc["regions"]])
    if table is not None:
        return table.group(0)
    seen = set()
    for rid in [region_from_document(obj).id for obj in doc["regions"]]:
        if rid in seen:
            raise SpecSyntaxError(f"duplicate region id '{rid}'")
        seen.add(rid)
    raise SpecSyntaxError("scene regions refused without a named error")


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


def _four_rays_hit(a: Region, b: Region) -> bool:
    """Do the four axis rays from b's centroid to a's bbox edges all cross a's mask?"""
    axn, ayn, axx, ayx = a.bbox
    px = int(round(b.centroid[0]))
    py = int(round(b.centroid[1]))
    if not (axn <= px <= axx and ayn <= py <= ayx):
        return False
    row, column = _cropped(a, (axn, py, axx, py))[0][0], "".join(_cropped(a, (px, ayn, px, ayx))[0])
    x, y = px - axn, py - ayn
    return "1" in row[:x + 1] and "1" in row[x:] and "1" in column[:y + 1] and "1" in column[y:]


def _bbox_gap(a_bbox, b_bbox) -> float:
    axn, ayn, axx, ayx = a_bbox
    bxn, byn, bxx, byx = b_bbox
    dx = max(0, bxn - axx, axn - bxx)
    dy = max(0, byn - ayx, ayn - byx)
    return math.hypot(dx, dy)


def _within(a: Region, b: Region, tau: float) -> bool:
    """Is the minimum inter-mask distance (inter-bbox without both masks) <= tau?

    No pixel pair is closer than the bbox gap (the hypot of two integer
    offsets is their correctly rounded distance), so a gap beyond tau decides
    at once.  Otherwise a pixel within tau of the other region lies inside
    that region's bbox grown by floor(tau), so each mask is cropped to it, and
    the crops are laid in one frame, the offset (cx, cy) of a's crop from b's
    carried apart, however far apart the masks lie.  For a row offset dy the
    pixel offsets within tau are a run |dx| <= k (the distance in floats, as
    a table of pixel coordinates takes it, grows with |dx|; k is bisected).
    b's frame, spread along the run by O(log) shift-ORs and moved by dy rows,
    meets a's iff a pixel pair at that dy is within tau.  Time is O(log)
    big-int operations for each of at most ha + hb - 1 row offsets, and
    memory a few frames of the crops, whatever tau and the masks' places.
    """
    gap = _bbox_gap(a.bbox, b.bbox)
    if gap > tau or a.mask is None or b.mask is None:
        return gap <= tau
    r = math.floor(tau)
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a.bbox, b.bbox
    rows_a, axn, ayn = _cropped(a, (bx0 - r, by0 - r, bx1 + r, by1 + r))
    rows_b, bxn, byn = _cropped(b, (ax0 - r, ay0 - r, ax1 + r, ay1 + r))
    wa, ha, wb, hb = len(rows_a[0]), len(rows_a), len(rows_b[0]), len(rows_b)
    width = wb - 1 + max(wa, wb)  # rows from bit wb - 1: no pixel pair's dx moves b's bits onto a's other rows
    fa, fb = (int("".join(["0" * (wb - 1) + row + "0" * (width - wb + 1 - len(row)) for row in rows])[::-1], 2)
              for rows in (rows_a, rows_b))
    if not (fa and fb):
        return False
    cx, cy = axn - bxn, ayn - byn
    dx_low, dx_high = cx - wb + 1, cx + wa - 1  # the dx of every pixel pair
    nearest, farthest = max(0, dx_low, -dx_high), max(-dx_low, dx_high)  # their least and greatest |dx|
    for dy in range(max(cy - hb + 1, -r - 1), min(cy + ha - 1, r + 1) + 1):  # past |dy| <= tau, bisection decides
        fy = float(dy) * float(dy)
        k, over = nearest - 1, farthest + 1  # |dx| = k is within tau, or k < nearest; over is not
        while over - k > 1:
            mid = (k + over) // 2
            k, over = (mid, over) if math.sqrt((fm := float(mid)) * fm + fy) <= tau else (k, mid)
        low, high = max(-k, dx_low), min(k, dx_high)
        if low > high:
            continue
        spread, run = fb, 1  # b's frame ORed over the shifts 0 .. run - 1
        while run < high - low + 1:
            step = min(run, high - low + 1 - run)
            spread, run = spread | spread << step, run + step
        shift = (dy - cy) * width + low - cx
        if fa & (spread << shift if shift >= 0 else spread >> -shift):
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
        if _within(a, b, 0.5):  # the masks overlap: other pixels lie at least 1 apart
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


def relation_evidence(spec: NetworkSpec, bound: Mapping[str, Region | None], *,
                      tau: float | None = None, epsilon: float | None = None) -> dict[str, str]:
    """The evidence a scene gives a relational spec, as node id -> observed
    state, from each feature's bound region (:func:`select_region`) or None.

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
    return assignments


# kept for infer and check on a scene, the demos and bench/tracing.py
def relationalize(spec: NetworkSpec, regions: Sequence[Region], *,
                  tau: float | None = None, epsilon: float | None = None,
                  ) -> tuple[Network, EvidenceSet]:
    """Instantiate relation nodes from the scene and drop the functional links.

    :func:`validate_network` (which checks the relational invariants too,
    once per spec) plus the scene's :func:`relation_evidence`: the plain tree
    network (relation CPTs intact) and the evidence that clamps it.
    """
    bound = {fid: select_region(pred, regions) for fid, pred in spec.bind.items()}
    return validate_network(spec), EvidenceSet(relation_evidence(spec, bound, tau=tau, epsilon=epsilon))
