import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefscope import cli, relational
from beliefscope.endoscopy import generate_stream
from beliefscope.errors import InvalidNetworkError, SpecSyntaxError
from beliefscope.models import builtin_model
from beliefscope.network import (
    COLOUR_CLASSES, NetworkSpec, NodeSpec, apply_evidence, load_json, relational_diagnostics)
from beliefscope.propagation import brute_force_beliefs, propagate
from beliefscope.temporal import Frame, bind_frame, parse_stream
from beliefscope.relational import (
    Region,
    eval_relation,
    relationalize,
    scene_from_document,
    scene_to_document,
    select_region,
)

from helpers import (
    dense_min_distance,
    mask_grid,
    mask_pixels,
    per_field_region,
    random_region,
    reference_four_rays_hit,
    reference_masks_overlap,
    reference_region,
    reference_within,
)


def ring_region(rid="ring", colour="bright"):
    mask = np.ones((5, 5), dtype=bool)
    mask[1:-1, 1:-1] = False
    return Region(id=rid, colour_class=colour, centroid=(2.0, 2.0), area=16,
                  bbox=(0, 0, 4, 4), mask=mask)


def pixel_region(rid, x, y, colour="dark"):
    return Region(id=rid, colour_class=colour, centroid=(float(x), float(y)), area=1,
                  bbox=(x, y, x, y), mask=np.ones((1, 1), dtype=bool))


class TestRegion:
    def test_invariants(self):
        with pytest.raises(ValueError, match="area must be >= 1"):
            Region("r", "dark", (0, 0), 0, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="bbox not well-ordered"):
            Region("r", "dark", (0, 0), 1, (2, 0, 0, 0))
        with pytest.raises(ValueError, match="unknown colour class"):
            Region("r", "purple", (0, 0), 1, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="mask has 2 pixels, area is 1"):
            Region("r", "dark", (0, 0), 1, (0, 0, 1, 0), mask=np.ones((1, 2), dtype=bool))
        with pytest.raises(ValueError, match="mask extent"):
            Region("r", "dark", (0, 0), 1, (0, 0, 1, 1),
                   mask=np.array([[1, 0], [0, 0]], dtype=bool))

    @pytest.mark.parametrize("edge", [(0, slice(None)), (-1, slice(None)),
                                      (slice(None), 0), (slice(None), -1)],
                             ids=["top", "bottom", "left", "right"])
    def test_mask_extent_needs_every_edge(self, edge):
        mask = np.ones((3, 4), dtype=bool)
        mask[edge] = False
        with pytest.raises(ValueError, match="mask extent does not reach the bbox"):
            Region("r", "dark", (1.0, 1.0), int(mask.sum()), (0, 0, 3, 2), mask=mask)

    def test_scene_round_trip(self):
        regions = (ring_region(), pixel_region("p", 2, 2))
        text = json.dumps(scene_to_document(regions))
        parsed = scene_from_document(load_json(text))
        assert [r.id for r in parsed] == ["ring", "p"]
        assert parsed[0].mask == regions[0].mask == 0b11111_10001_10001_10001_11111

    def test_scene_errors(self):
        with pytest.raises(SpecSyntaxError, match="unknown field"):
            scene_from_document(load_json(
                '{"regions": [{"id": "a", "colour_class": "dark", "centroid": [0,0], '
                '"area": 1, "bbox": [0,0,0,0], "shade": 3}]}'))
        with pytest.raises(SpecSyntaxError, match="duplicate region id"):
            scene_from_document(load_json(json.dumps(scene_to_document(
                (pixel_region("a", 0, 0), pixel_region("a", 5, 5))))))


EXACT = 2**53
HOSTILE_VALUES = (None, True, "x", [], {}, 0, -1, 0.5, EXACT + 1, 10**400, 1e999, [1, 2], [[1]])
HOSTILE_NUMBERS = (True, False, None, "1", [], 1e999, -1e999, 0, -7, 0.5, 1.0, EXACT, EXACT + 1,
                   -EXACT - 1, 10**400)
HOSTILE_ENTRIES = (2, -1, 256, 0.5, 1.0, 0.0, True, False, "1", "a", None, 1e999, [1], {})
REGION_FIELDS = ("id", "colour_class", "centroid", "area", "bbox", "mask")
EDITS = ("field", "number", "number", "number", "length", "drop", "extra", "area",
         "mask-entry", "mask-entry", "mask-row", "mask-shift", "not-a-dict")


@st.composite
def region_documents(draw):
    """Region documents: valid ones, with and without masks, then up to two
    hostile edits of a field, a centroid or bbox entry, a length, a key, the
    area, a mask entry or row, or the whole entry."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    corner = st.sampled_from([0, 7, -3, EXACT - 3, -EXACT])
    x0, y0 = draw(corner), draw(corner)
    number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-50, 50)
    doc = {"id": draw(st.text(max_size=3)), "colour_class": draw(st.sampled_from(COLOUR_CLASSES)),
           "centroid": [draw(number), draw(number)], "area": h * w,
           "bbox": [x0, y0, x0 + w - 1, y0 + h - 1]}
    if draw(st.booleans()):
        bit = st.sampled_from([0, 1])
        grid = draw(st.lists(st.lists(bit, min_size=w, max_size=w), min_size=h, max_size=h))
        grid[0][0] = grid[-1][-1] = 1   # the set pixels reach every bbox edge
        doc["mask"], doc["area"] = grid, sum(map(sum, grid))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(EDITS))
        field = draw(st.sampled_from(["bbox", "centroid"]))
        mask = doc.get("mask") if isinstance(doc.get("mask"), list) else None
        if edit == "field":
            doc[draw(st.sampled_from(REGION_FIELDS))] = draw(st.sampled_from(HOSTILE_VALUES))
        elif edit == "number" and isinstance(doc.get(field), list) and doc[field]:
            entry = draw(st.integers(0, len(doc[field]) - 1))
            doc[field][entry] = draw(st.sampled_from(HOSTILE_NUMBERS))
        elif edit == "length" and isinstance(doc.get(field), list):
            doc[field] = doc[field][:-1] if draw(st.booleans()) else doc[field] + [3]
        elif edit == "drop":
            doc.pop(draw(st.sampled_from(REGION_FIELDS)), None)
        elif edit == "extra":
            doc["shade"] = 1
        elif edit == "area":
            doc["area"] = draw(st.sampled_from([0, True, EXACT, EXACT + 1, 10**400]))
        elif edit == "mask-entry" and mask:
            row = draw(st.sampled_from(mask))
            if isinstance(row, list) and 1 in row:   # a set pixel: the pixel count may hold
                row[row.index(1)] = draw(st.sampled_from(HOSTILE_ENTRIES))
        elif edit == "mask-row" and mask and isinstance(mask[-1], list):
            mask[-1] = mask[-1][:-1] if draw(st.booleans()) else mask[-1] + [0]
        elif edit == "mask-shift" and mask and len(mask) > 1 and all(
                isinstance(row, list) and row for row in (mask[0], mask[-1])):
            mask[0].append(mask[-1].pop())   # ragged rows, the same number of entries
        elif edit == "not-a-dict":
            return draw(st.sampled_from([[doc], "region", 3, None]))
    return doc


def _bit_grid(mask) -> bool:
    return (isinstance(mask, list) and all(isinstance(row, list) for row in mask)
            and all(type(v) is int and v in (0, 1) for row in mask for v in row))


def _scene_decoded(doc):
    return relational.scene_from_document({"regions": [doc]})[0]


def assert_decoded_like_per_field(doc):
    """region_from_document, and scenes (a RegionTable, region_from_document
    naming what it turns down), accept what the per-field decoder accepts,
    with the same fields, and name every other error the same way, except for
    the integer range and mask entry rules the per-field decoder lacks."""
    for decode in (relational.region_from_document, _scene_decoded):
        _assert_decodes_like_per_field(decode, doc)


def _assert_decodes_like_per_field(decode, doc):
    try:
        expected = per_field_region(doc)
    except SpecSyntaxError as exc:
        with pytest.raises(SpecSyntaxError) as info:
            decode(doc)
        assert str(info.value) == str(exc)
        return
    if expected.area > EXACT:
        message = f"region '{expected.id}': 'area' must be an integer in [-2**53, 2**53]"
    elif any(abs(v) > EXACT for v in expected.bbox):
        message = f"region '{expected.id}': 'bbox' entries must be integers in [-2**53, 2**53]"
    elif expected.mask is not None and not _bit_grid(doc["mask"]):
        message = f"region '{expected.id}': mask entries must be 0 or 1"
    else:
        region = decode(doc)
        for name in ("id", "colour_class", "centroid", "area", "bbox"):
            value, reference = getattr(region, name), getattr(expected, name)
            assert value == reference and type(value) is type(reference), name
        assert [type(v) for v in region.centroid] == [float, float]
        assert [type(v) for v in region.bbox] == [int] * 4
        if expected.mask is None:
            assert region.mask is None
        else:
            assert type(region.mask) is int and region.mask == expected.mask
        return
    with pytest.raises(SpecSyntaxError) as info:
        decode(doc)
    assert str(info.value) == message


def single_edits(doc):
    """Every copy of ``doc`` with one field, entry, length, key, mask entry or
    mask row changed to a hostile value, and the non-dict entries."""
    yield from ([doc], "region", 3, None)
    for field in REGION_FIELDS:
        yield {k: v for k, v in doc.items() if k != field}
        for value in HOSTILE_VALUES:
            yield {**doc, field: value}
    yield {**doc, "shade": 1}
    for area in (0, -1, True, EXACT, EXACT + 1, 10**400):
        yield {**doc, "area": area}
    for field in ("centroid", "bbox"):
        yield {**doc, field: doc[field][:-1]}
        yield {**doc, field: doc[field] + [3]}
        for i in range(len(doc[field])):
            for value in HOSTILE_NUMBERS:
                yield {**doc, field: doc[field][:i] + [value] + doc[field][i + 1:]}
    mask = doc.get("mask")
    if mask is not None:
        for y, row in enumerate(mask):
            for x in range(len(row)):
                for value in HOSTILE_ENTRIES:
                    rows = [list(r) for r in mask]
                    rows[y][x] = value
                    yield {**doc, "mask": rows}
            yield {**doc, "mask": mask[:y] + [row[:-1]] + mask[y + 1:]}
            yield {**doc, "mask": mask[:y] + [row + [1]] + mask[y + 1:]}
        yield {**doc, "mask": [mask[0] + mask[-1][-1:]] + mask[1:-1] + [mask[-1][:-1]]}


SWEEP_BASES = (
    {"id": "r", "colour_class": "dark", "centroid": [1.5, -2.0], "area": 9, "bbox": [0, 0, 2, 2]},
    {"id": "m", "colour_class": "bright", "centroid": [1.0, 0.5], "area": 4, "bbox": [3, 5, 5, 6],
     "mask": [[1, 0, 1], [0, 1, 1]]},
    {"id": "hi", "colour_class": "other", "centroid": [0.0, 0.0], "area": EXACT,
     "bbox": [EXACT - 1, EXACT - 2, EXACT, EXACT]},
    {"id": "lo", "colour_class": "green", "centroid": [-1, 7], "area": 1,
     "bbox": [-EXACT, -EXACT, -EXACT + 1, -EXACT + 1]},
)


class TestRegionDecoder:
    @settings(max_examples=200, deadline=None)
    @given(region_documents())
    def test_agrees_with_the_per_field_decoder(self, doc):
        assert_decoded_like_per_field(doc)

    @pytest.mark.parametrize("base", SWEEP_BASES, ids=[b["id"] for b in SWEEP_BASES])
    def test_every_single_edit_agrees_with_the_per_field_decoder(self, base):
        for doc in single_edits(base):
            assert_decoded_like_per_field(doc)

    @pytest.mark.parametrize("depth", [2, 3, 63, 64, 65, 66])
    def test_masks_nested_to_numpys_dimension_limit(self, depth):
        """numpy reads 64 nested levels as a shape and refuses a 65th."""
        mask = 1
        for _ in range(depth):
            mask = [mask]
        assert_decoded_like_per_field({**SWEEP_BASES[0], "area": 1, "bbox": [0, 0, 0, 0], "mask": mask})


@st.composite
def mask_documents(draw):
    """Region documents with a 0/1 mask: half of them fit their bbox and area,
    the others may miss the bbox's shape, the area's pixel count or one of
    the bbox's edges, each on its own or together."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=w, max_size=w),
                         min_size=h, max_size=h))
    x0, y0 = draw(st.sampled_from([0, 7, -3, EXACT - 5, -EXACT])), draw(st.integers(-3, 3))
    dh = dw = darea = 0
    if draw(st.booleans()):
        grid[0][0] = grid[-1][-1] = 1   # the set pixels reach every bbox edge
    else:
        dh, dw, darea = (draw(st.sampled_from([0, 0, 0, 1, -1])) for _ in range(3))
    return {"id": draw(st.sampled_from(["a", "b", "true"])),
            "colour_class": draw(st.sampled_from(COLOUR_CLASSES)),
            "centroid": [draw(st.integers(-5, 5)), 0.5],
            "area": sum(map(sum, grid)) + darea,
            "bbox": [x0, y0, x0 + w - 1 + dw, y0 + h - 1 + dh], "mask": grid}


AREA_RANGE = "region 'r': 'area' must be an integer in [-2**53, 2**53]"
BBOX_RANGE = "region 'r': 'bbox' entries must be integers in [-2**53, 2**53]"
NOT_FINITE = "region: 'centroid': expected a finite number"

#: (field, value, error) edits of the first SWEEP_BASES region: the values the table's
#: columns refuse, and the error region_from_document names for each
COLUMN_REFUSALS = [
    ("area", EXACT + 1, AREA_RANGE), ("area", 2**63, AREA_RANGE), ("area", 2**64, AREA_RANGE),
    ("area", -2**63 - 1, "region 'r': area must be >= 1"),
    ("area", True, "region: 'area' must be an integer"),
    ("bbox", [0, 0, 2, EXACT + 1], BBOX_RANGE), ("bbox", [0, 0, 2**63, 2], BBOX_RANGE),
    ("bbox", [-EXACT - 1, 0, 2, 2], BBOX_RANGE), ("bbox", [0, -2**63 - 1, 2, 2], BBOX_RANGE),
    ("bbox", [-EXACT - 1, 0, EXACT + 1, 2], BBOX_RANGE),
    ("bbox", [3, 0, 2, 2], "region 'r': bbox not well-ordered"),
    ("bbox", [0, 0, 2, -1], "region 'r': bbox not well-ordered"),
    ("bbox", [0, 0, 2**63, -2**63], "region 'r': bbox not well-ordered"),
    ("bbox", [0, True, 2, 2], "region: 'bbox' entry must be an integer"),
    ("centroid", [math.nan, 0.0], NOT_FINITE), ("centroid", [0.0, math.inf], NOT_FINITE),
    ("centroid", [-math.inf, 0.0], NOT_FINITE), ("centroid", [2**1024, 0.0], NOT_FINITE),
    ("centroid", [True, 0.0], NOT_FINITE),
    ("colour_class", "purple", "region 'r': unknown colour class 'purple'"),
    ("colour_class", ["dark"], "region 'r': unknown colour class '['dark']'"),
    ("colour_class", {"dark": 1}, "region 'r': unknown colour class '{'dark': 1}'"),
    ("colour_class", None, "region 'r': unknown colour class 'None'"),
]


class TestColumnRefusals:
    @pytest.mark.parametrize("field, value, message", COLUMN_REFUSALS,
                             ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(COLUMN_REFUSALS)])
    def test_each_refusal_names_its_error(self, field, value, message):
        doc = {**SWEEP_BASES[0], field: value}
        assert relational.RegionTable.checked([[doc]]) is None
        assert relational.RegionTable.checked([[SWEEP_BASES[1]], [SWEEP_BASES[0], doc]]) is None
        for decode in (relational.region_from_document, _scene_decoded):
            with pytest.raises(SpecSyntaxError) as info:
                decode(doc)
            assert str(info.value) == message
        line = json.dumps({"index": 0, "t": 0.0, "regions": [doc]})
        if "NaN" not in line and "Infinity" not in line:  # tokens the decoder refuses first
            with pytest.raises(SpecSyntaxError) as info:
                parse_stream('{"dt": 0.04}\n' + line)
            assert str(info.value) == f"stream line 2: {message}"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("mask", ["", ', "mask": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]'],
                             ids=["no-mask", "mask"])
    def test_non_finite_centroid_tokens_are_refused_by_the_decoder(self, token, mask):
        """A stream names the line that holds the token, as it names a 1e999."""
        region = ('{"id": "r", "colour_class": "dark", "centroid": [1.0, %s], "area": 9, '
                  '"bbox": [0, 0, 2, 2]%s}' % (token, mask))
        frame = '{"index": %d, "t": %s, "regions": [%s]}\n'
        for parse, text, where in (
                (parse_stream, '{"dt": 0.04}\n' + frame % (0, "0.0", region), "stream line 2: "),
                (parse_stream, '{"dt": 0.04}\n' + frame % (0, "0.0", "") + frame % (1, "0.04", "")
                 + frame % (2, "0.08", region), "stream line 4: "),
                (lambda text: scene_from_document(load_json(text)), '{"regions": [%s]}' % region, "")):
            with pytest.raises(SpecSyntaxError) as info:
                parse(text)
            assert str(info.value) == f"{where}non-finite number '{token}' is not allowed"

    def test_the_limits_themselves_are_accepted(self):
        doc = {**SWEEP_BASES[0], "area": EXACT, "bbox": [-EXACT, -EXACT, EXACT, EXACT],
               "centroid": [1, -1.5]}
        region = relational.RegionTable.checked([[doc]]).group(0)[0]
        assert (region.area, region.bbox, region.centroid) == (EXACT, (-EXACT, -EXACT, EXACT, EXACT),
                                                               (1.0, -1.5))
        assert [type(v) for v in (region.area, *region.bbox, *region.centroid)] == [int] * 5 + [float] * 2


class TestTableRows:
    @pytest.mark.parametrize("entry", [1.0, 0.0, "1", None, [1], {}, -1, 2, 256, 2**64, True, False])
    def test_bytes_refuse_every_other_json_value_without_the_type_pass(self, entry):
        """A mask is checked on the bytes of the text json.dumps writes for it, so
        every JSON value but the integers 0 and 1 is refused, with no pass over types."""
        with pytest.raises(ValueError):
            relational._bit_grid(json.dumps([[entry]]), 1, 1, 1)

    @pytest.mark.parametrize("mask, area", [
        ([[1, 0], [0, 0]], 1), ([[0, 1], [0, 0]], 1), ([[0, 0], [1, 0]], 1),
        ([[1, 1], [1, 1]], 3), ([[1, 1], [1, 1]], 5), ([[True, 1], [1, 1]], 4),
        ([[1, 1], [1]], 3), ([[1, 1]], 2), ((1, 1), 2)])
    def test_count_extent_and_shape_are_checked_on_the_bytes(self, mask, area):
        with pytest.raises(ValueError):
            relational._bit_grid(json.dumps(mask), 2, 2, area)

    @pytest.mark.parametrize("text", ["[[1,0],[1,1]]", "[ [1, 0], [1, 1] ]", "[[1, 0],  [1, 1]]",
                                      "[[1, 0], [1, 1]] ", "[[1, 0]]", '"[[1, 0], [1, 1]]"'])
    def test_only_the_dumps_layout_is_a_grid(self, text):
        with pytest.raises(ValueError):
            relational._bit_grid(text, 2, 2, 3)

    def test_a_huge_bbox_is_refused_by_the_text_length(self):
        with pytest.raises(ValueError):
            relational._bit_grid("[[1]]", 2**53, 2**53, 1)

    def test_a_grid_is_the_bitset_of_its_pixels(self):
        """Bit y * w + x is pixel (x, y): the int decodes back to the grid."""
        bits = relational._bit_grid("[[1, 0, 1], [1, 1, 0]]", 2, 3, 4)
        assert type(bits) is int and bits == 0b011_101
        region = Region("r", "dark", (0.0, 0.0), 4, (0, 0, 2, 1), mask=bits)
        assert mask_grid(region).tolist() == [[True, False, True], [True, True, False]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(mask_documents() | mask_documents() | region_documents(),
                             max_size=3, unique_by=lambda doc: repr(doc.get("id", doc))
                             if isinstance(doc, dict) else repr(doc)), max_size=3))
    def test_every_table_row_is_a_public_region(self, groups):
        """Rows are built without Region's checks, because the column passes made
        them: each row is accepted by ``Region(...)`` with the same fields and
        mask.  The table is refused only when a document or a repeated id is."""
        table = relational.RegionTable.checked(groups)
        if table is None:
            try:
                regions = [[reference_region(doc) for doc in group] for group in groups]
            except SpecSyntaxError:
                return
            assert any(len({r.id for r in group}) < len(group) for group in regions)
            return
        for k, group in enumerate(groups):
            rows = table.group(k)
            assert len(rows) == len(group)
            for row, doc in zip(rows, group):
                public = Region(row.id, row.colour_class, row.centroid, row.area, row.bbox,
                                row.mask)
                expected = reference_region(doc)
                for name in ("id", "colour_class", "centroid", "area", "bbox"):
                    assert getattr(public, name) == getattr(row, name) == getattr(expected, name)
                if row.mask is None:
                    assert expected.mask is None
                else:
                    assert type(row.mask) is int
                    assert public.mask == row.mask == expected.mask


class TestEvalRelation:
    def test_ring_surrounds_centre_pixel(self):
        assert eval_relation("surrounding", ring_region(), pixel_region("p", 2, 2)) == "holds"

    def test_far_pair_neither_adjacent_nor_static(self):
        a = pixel_region("a", 0, 0)
        b = pixel_region("b", 10, 0)
        assert eval_relation("adjacent", a, b, tau=2) == "holds_not"
        assert eval_relation("static", a, b, epsilon=2) == "holds_not"

    def test_identical_region_is_static(self):
        a = pixel_region("a", 3, 3, colour="yellow")
        b = pixel_region("a", 3, 3, colour="yellow")
        assert eval_relation("static", a, b) == "holds"

    def test_touching_regions_are_adjacent(self):
        a = Region("a", "bright", (0.5, 0.5), 4, (0, 0, 1, 1))
        b = Region("b", "dark", (2.5, 0.5), 4, (2, 0, 3, 1))
        # bbox gap is 1 px; and truly touching bboxes give 0
        assert eval_relation("adjacent", a, b) == "holds"
        c = Region("c", "dark", (1.5, 0.5), 4, (1, 0, 2, 1))
        assert eval_relation("adjacent", a, c) == "holds"

    def test_open_ring_fails_the_ray_test(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[1:-1, 1:-1] = False
        mask[2, 4] = False  # open the ring at the centroid row, right side
        a = Region("a", "bright", (2.0, 2.0), 15, (0, 0, 4, 4), mask=mask)
        assert eval_relation("surrounding", a, pixel_region("p", 2, 2)) == "holds_not"

    def test_overlapping_masks_do_not_surround(self):
        solid = Region("s", "bright", (2.0, 2.0), 25, (0, 0, 4, 4),
                       mask=np.ones((5, 5), dtype=bool))
        assert eval_relation("surrounding", solid, pixel_region("p", 2, 2)) == "holds_not"

    def test_bbox_fallback_without_masks(self):
        outer = Region("o", "bright", (5.0, 5.0), 20, (0, 0, 10, 10))
        inner = Region("i", "dark", (5.0, 5.0), 4, (4, 4, 6, 6))
        assert eval_relation("surrounding", outer, inner) == "holds"
        edge = Region("e", "dark", (5.0, 0.0), 4, (4, 0, 6, 2))  # shares outer's edge
        assert eval_relation("surrounding", outer, edge) == "holds_not"

    def test_distance_bins_at_tau(self):
        a = pixel_region("a", 0, 0)
        b = pixel_region("b", 2, 0)
        assert eval_relation("distance", a, b, tau=2) == "near"
        assert eval_relation("distance", a, b, tau=1.5) == "far"

    def test_static_contract_error_on_colour_mismatch(self):
        a = pixel_region("a", 0, 0, colour="yellow")
        b = pixel_region("b", 0, 0, colour="dark")
        with pytest.raises(ValueError, match="unmatched regions"):
            eval_relation("static", a, b)

    def test_unknown_evaluator_and_bad_params(self):
        a, b = pixel_region("a", 0, 0), pixel_region("b", 1, 0)
        with pytest.raises(ValueError, match="unknown evaluator"):
            eval_relation("above", a, b)
        with pytest.raises(ValueError, match="strictly positive"):
            eval_relation("adjacent", a, b, tau=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly positive and finite"):
                eval_relation("adjacent", a, b, tau=bad)
            with pytest.raises(ValueError, match="strictly positive and finite"):
                eval_relation("static", a, b, epsilon=bad)

    def test_symmetry_of_pairwise_relations(self):
        rng = random.Random(4)
        for _ in range(50):
            a = random_region(rng, "a", colour="dark")
            b = random_region(rng, "b", colour="dark")
            for kind in ("adjacent", "distance", "static"):
                assert eval_relation(kind, a, b) == eval_relation(kind, b, a)

    def test_surrounding_antisymmetry_and_consequences(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(60):
            # a random ring with a random blob in its hole: holds by construction
            size = rng.randint(7, 12)
            band = rng.randint(1, 2)
            mask = np.ones((size, size), dtype=bool)
            mask[band:-band, band:-band] = False
            a = Region("a", "bright", (size / 2, size / 2), int(mask.sum()),
                       (0, 0, size - 1, size - 1), mask=mask)
            hole = range(band + 1, size - band - 1)
            bx, by = rng.choice(list(hole)), rng.choice(list(hole))
            b = pixel_region("b", bx, by)
            if eval_relation("surrounding", a, b) == "holds":
                hits += 1
                assert eval_relation("surrounding", b, a) == "holds_not"
                ax0, ay0, ax1, ay1 = a.bbox
                bx0, by0, bx1, by1 = b.bbox
                assert ax0 < bx0 and bx1 < ax1 and ay0 < by0 and by1 < ay1
        assert hits == 60
        # random blob pairs: whenever holds comes out, the same consequences follow
        for _ in range(200):
            a = random_region(rng, "a", colour="bright", size=8)
            b = random_region(rng, "b", colour="dark", origin=(2, 2), size=4)
            if eval_relation("surrounding", a, b) == "holds":
                assert eval_relation("surrounding", b, a) == "holds_not"
                # masks genuinely disjoint, checked on raw pixel sets
                assert not (mask_pixels(a) & mask_pixels(b))

    def test_determinism(self):
        a, b = ring_region(), pixel_region("p", 2, 2)
        assert all(eval_relation("surrounding", a, b) == "holds" for _ in range(5))


def square_region(rid, x0, y0, size, colour="dark", hole=0):
    """A solid square mask at (x0, y0), or with ``hole`` a square frame around
    a centred hole of that size."""
    mask = np.ones((size, size), dtype=bool)
    if hole:
        band = (size - hole) // 2
        mask[band:band + hole, band:band + hole] = False
    c = x0 + (size - 1) / 2, y0 + (size - 1) / 2
    return Region(rid, colour, c, int(mask.sum()), (x0, y0, x0 + size - 1, y0 + size - 1),
                  mask=mask)


ADJACENCY_SPEC = {
    "root": "lesion",
    "nodes": [
        {"id": "lesion", "kind": "chance", "states": ["present", "absent"], "prior": [0.4, 0.6]},
        {"id": "dark_fold", "kind": "chance", "states": ["present", "absent"],
         "parent": "lesion", "cpt": [[0.8, 0.2], [0.3, 0.7]]},
        {"id": "bright_rim", "kind": "chance", "states": ["present", "absent"],
         "parent": "lesion", "cpt": [[0.7, 0.3], [0.2, 0.8]]},
        {"id": "touching", "kind": "relation", "states": ["holds", "holds_not"],
         "parent": "lesion", "evaluator": "adjacent", "inputs": ["dark_fold", "bright_rim"],
         "cpt": [[0.9, 0.1], [0.25, 0.75]]},
    ],
    "bind": {"dark_fold": {"colour_class": "dark"}, "bright_rim": {"colour_class": "bright"}},
}


class TestAdjacency:
    TAUS = (0.5, 1.0, math.sqrt(2), 2.0, 3.5, 0.3, 1.7, 2.2, math.sqrt(5), 2.9, 4.25, 6.5)

    def test_decision_equals_the_dense_minimum_distance(self):
        rng = random.Random(2718)
        for i in range(400):
            a = random_region(rng, "a", size=8)
            b = random_region(rng, "b", size=8,
                              origin=(rng.randint(-12, 12), rng.randint(-12, 12)))
            d = dense_min_distance(a, b)
            for tau in self.TAUS:
                want = "holds" if d <= tau else "holds_not"
                assert eval_relation("adjacent", a, b, tau=tau) == want, (i, tau, d)
                assert eval_relation("adjacent", b, a, tau=tau) == want, (i, tau, d)

    def test_tau_exactly_at_a_pixel_distance(self):
        a = pixel_region("a", 0, 0)
        for (x, y), tau in [((1, 0), 1.0), ((1, 1), math.sqrt(2)), ((2, 1), math.sqrt(5)),
                            ((3, 0), 3.0)]:
            b = pixel_region("b", x, y, colour="bright")
            assert eval_relation("adjacent", a, b, tau=tau) == "holds"
            assert eval_relation("adjacent", a, b, tau=math.nextafter(tau, 0)) == "holds_not"

    def test_one_empty_crop_decides_holds_not(self):
        """a's bbox reaches within tau of b's, but a's pixels (its top row and left
        column) all lie outside b's bbox grown by floor(tau)."""
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, :] = mask[:, 0] = True
        a = Region("a", "dark", (3.0, 3.0), int(mask.sum()), (0, 0, 9, 9), mask=mask)
        b = pixel_region("b", 10, 10, colour="bright")
        assert dense_min_distance(a, b) > 9
        for tau in (1.5, 2.0, 2.9):
            assert eval_relation("adjacent", a, b, tau=tau) == "holds_not"
            assert eval_relation("adjacent", b, a, tau=tau) == "holds_not"

    def test_floor_tau_covering_both_bboxes(self):
        """tau grows each bbox past the other's: the crops are the whole masks."""
        rng = random.Random(1414)
        for i in range(100):
            a = random_region(rng, "a", size=5)
            b = random_region(rng, "b", size=5, origin=(rng.randint(-6, 6), rng.randint(-6, 6)))
            d = dense_min_distance(a, b)
            for tau in (30.0, math.nextafter(d, math.inf), d, math.nextafter(d, 0)):
                want = "holds" if d <= tau else "holds_not"
                if tau > 0:
                    assert eval_relation("adjacent", a, b, tau=tau) == want, (i, tau, d)
                    assert eval_relation("adjacent", b, a, tau=tau) == want, (i, tau, d)

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    def test_coordinates_near_2_pow_53(self, sign):
        """Bitsets hold offsets, not coordinates, so the decision at a pixel
        distance is the same near ±2**53 as near 0."""
        rng = random.Random(53)
        for i in range(60):
            a = random_region(rng, "a", size=4)
            b = random_region(rng, "b", size=4, origin=(rng.randint(-3, 3), rng.randint(-3, 3)))
            d = dense_min_distance(a, b)
            shift = 2**53 - 20 if sign > 0 else 3 - 2**53

            def moved(r):
                x0, y0, x1, y1 = r.bbox
                return Region(r.id, r.colour_class, r.centroid, r.area,
                              (x0 + shift, y0 + shift, x1 + shift, y1 + shift), mask=r.mask)

            far_a, far_b = moved(a), moved(b)
            assert max(far_a.bbox + far_b.bbox) <= 2**53 and min(far_a.bbox + far_b.bbox) >= -2**53
            for tau in (d, math.nextafter(d, 0), 1.0, 2.5):
                if tau > 0:
                    want = eval_relation("adjacent", a, b, tau=tau)
                    assert want == ("holds" if d <= tau else "holds_not")
                    assert eval_relation("adjacent", far_a, far_b, tau=tau) == want, (i, tau)
                    assert eval_relation("adjacent", far_b, far_a, tau=tau) == want, (i, tau)

    def test_large_masks_far_apart(self, capsys, tmp_path):
        a = square_region("a", 0, 0, 300)
        b = square_region("b", 1299, 0, 300, colour="bright")
        assert eval_relation("adjacent", a, b) == "holds_not"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ADJACENCY_SPEC))
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_to_document((a, b))))
        code = cli.main(["infer", "--spec", str(spec), "--scene", str(scene)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["beliefs"]["touching"] == {"holds": 0.0, "holds_not": 1.0}

    # the frame's hole leaves a 3 px gap around the solid square it encloses
    @pytest.mark.parametrize("a, b, tau, want", [
        pytest.param(square_region("a", 0, 0, 300), square_region("b", 150, 150, 300),
                     2.0, "holds", id="overlapping-squares"),
        pytest.param(square_region("a", 0, 0, 300), square_region("b", -13, -13, 326, hole=304),
                     3.5, "holds", id="frame-at-gap-3-within"),
        pytest.param(square_region("a", 0, 0, 300), square_region("b", -13, -13, 326, hole=304),
                     2.5, "holds_not", id="frame-at-gap-3-beyond"),
        pytest.param(square_region("a", 0, 0, 300), square_region("b", 100, 100, 150),
                     1.0, "holds", id="square-inside-square"),
    ])
    def test_large_masks_with_overlapping_bboxes_stay_small(self, a, b, tau, want):
        tracemalloc.start()
        try:
            got = (eval_relation("adjacent", a, b, tau=tau), eval_relation("adjacent", b, a, tau=tau))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (want, want)
        assert peak < 16 * 2**20


def triangle_pair(n, crack):
    """Two right triangles in one n x n box, across a diagonal crack ``crack``
    pixel diagonals wide: their bboxes overlap almost entirely, their masks
    never do, and their closest pixels lie on the crack."""
    ys, xs = np.mgrid[0:n, 0:n]
    lower = xs + ys <= n - 1
    upper = (xs + ys >= n - 1 + crack)[crack:, crack:]
    return (Region("a", "dark", (n / 3, n / 3), int(lower.sum()), (0, 0, n - 1, n - 1),
                   mask=lower),
            Region("b", "bright", (2 * n / 3, 2 * n / 3), int(upper.sum()),
                   (crack, crack, n - 1, n - 1), mask=upper))


def taus_around(d):
    """TestAdjacency.TAUS, 30, and the pixel distance d and its float neighbours."""
    return [t for t in (*TestAdjacency.TAUS, 30.0, d, math.nextafter(d, 0), math.nextafter(d, math.inf))
            if t > 0]


class TestBitsetEvaluators:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 12), st.integers(1, 12),
           st.integers(-14, 14), st.integers(-14, 14))
    def test_adjacent_and_surrounding_equal_the_numpy_references(self, rng, size_a, size_b, dx, dy):
        """adjacent equals the numpy reference, on its one-table path and on its
        edge blocks, and the dense minimum distance; surrounding equals the bbox
        test, the numpy overlap and the numpy rays; both in both orders."""
        a = random_region(rng, "a", colour="bright", size=size_a)
        b = random_region(rng, "b", colour="dark", size=size_b, origin=(dx, dy))
        d = dense_min_distance(a, b)
        for x, y in ((a, b), (b, a)):
            for tau in taus_around(d):
                want = "holds" if d <= tau else "holds_not"
                assert reference_within(x, y, tau) == reference_within(x, y, tau, block=2) == (d <= tau)
                assert eval_relation("adjacent", x, y, tau=tau) == want, (tau, d)
            inside = relational._bbox_strictly_inside(y.bbox, x.bbox)
            holds = inside and not reference_masks_overlap(x, y) and reference_four_rays_hit(x, y)
            assert eval_relation("surrounding", x, y) == ("holds" if holds else "holds_not")
            assert relational._within(x, y, 0.5) == reference_masks_overlap(x, y)
            assert relational._four_rays_hit(x, y) == reference_four_rays_hit(x, y)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from([10**6, 2**40, 2**52]), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
    def test_far_apart_masks_at_their_distance(self, rng, size_a, size_b, far, sx, sy):
        """Masks far apart, at tau around their distance: the bbox offset is
        carried into each row's run of dx, and no frame spans the distance."""
        a = random_region(rng, "a", size=size_a, origin=(-5, -5))
        b = random_region(rng, "b", size=size_b, origin=(sx * far, sy * far))
        d = dense_min_distance(a, b)
        for x, y in ((a, b), (b, a)):
            for tau in (t for t in (d, math.nextafter(d, 0), math.nextafter(d, math.inf), d + 3.5) if t > 0):
                assert eval_relation("adjacent", x, y, tau=tau) == (
                    "holds" if reference_within(x, y, tau) else "holds_not"), (tau, d)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(7, 14), st.integers(1, 3))
    def test_surrounding_rings_equal_the_numpy_references(self, rng, size, band):
        """Rings with a pixel blob in or near their hole: the rays and the
        overlap test are reached, and decide as numpy did."""
        mask = np.ones((size, size), dtype=bool)
        mask[band:-band, band:-band] = False
        for _ in range(rng.randint(0, 3)):  # open the ring here and there
            mask[rng.randrange(size), rng.randrange(size)] = False
        mask[0, 0] = mask[-1, -1] = True
        ring = Region("a", "bright", (size / 2, size / 2), int(mask.sum()),
                      (0, 0, size - 1, size - 1), mask=mask)
        blob = random_region(rng, "b", colour="dark", size=3, origin=(band - 1, band - 1))
        inside = relational._bbox_strictly_inside(blob.bbox, ring.bbox)
        holds = inside and not reference_masks_overlap(ring, blob) and reference_four_rays_hit(ring, blob)
        assert eval_relation("surrounding", ring, blob) == ("holds" if holds else "holds_not")
        assert relational._four_rays_hit(ring, blob) == reference_four_rays_hit(ring, blob)
        assert relational._within(ring, blob, 0.5) == reference_masks_overlap(ring, blob)

    def test_masks_round_trip_through_ints_grids_and_documents(self):
        rng = random.Random(77)
        for _ in range(200):
            r = random_region(rng, "r", size=9)
            grid = mask_grid(r)
            assert Region(r.id, r.colour_class, r.centroid, r.area, r.bbox, mask=grid).mask == r.mask
            assert Region(r.id, r.colour_class, r.centroid, r.area, r.bbox, mask=grid.tolist()).mask == r.mask
            assert relational.region_to_document(r)["mask"] == grid.astype(int).tolist()

    @pytest.mark.parametrize("bbox", [(0, 0, 2**45, 0), (0, 0, 0, 2**45), (0, 0, 2**30, 2**30)])
    def test_a_huge_bbox_refuses_a_small_int_without_its_frame(self, bbox):
        """A mask whose bits cannot reach the last row and column is refused
        before a bbox's worth of digits is made."""
        with pytest.raises(ValueError, match="mask extent does not reach the bbox"):
            Region("r", "dark", (0.0, 0.0), 2, bbox, mask=0b11)

    @pytest.mark.parametrize("mask, message", [
        (-1, "mask has bits outside its 2x2 bbox"), (1 << 4, "mask has bits outside its 2x2 bbox"),
        (0b0111, "mask has 3 pixels, area is 2"), (0b0011, "mask extent does not reach the bbox"),
        (0b1001, None), (0b0110, None)])
    def test_an_int_mask_is_checked_like_a_grid(self, mask, message):
        if message is None:
            assert Region("r", "dark", (0.5, 0.5), 2, (0, 0, 1, 1), mask=mask).mask == mask
            return
        with pytest.raises(ValueError, match=f"region 'r': {message}"):
            Region("r", "dark", (0.5, 0.5), 2, (0, 0, 1, 1), mask=mask)


def bounded_adjacency(a, b, tau):
    """adjacent in both orders, with the peak of memory traced and the time taken."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        got = (eval_relation("adjacent", a, b, tau=tau), eval_relation("adjacent", b, a, tau=tau))
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak, seconds


class TestAdjacencyWork:
    """Exact on large masks and huge tau, in bounded time and memory: the work
    goes with the row offsets within tau and the masks' frame, never with tau²
    or with the distance between the masks."""

    @pytest.mark.parametrize("tau, want", [(4.0, "holds_not"), (math.sqrt(18), "holds")])
    def test_large_triangles_across_a_crack(self, tau, want):
        """Two 160 px triangles (12,880 and 11,935 pixels) across a 6-diagonal
        crack, their bboxes overlapping almost entirely, at distance sqrt(18)."""
        a, b = triangle_pair(160, 6)
        assert dense_min_distance(*triangle_pair(40, 6)) == math.sqrt(18)
        got, peak, seconds = bounded_adjacency(a, b, tau)
        assert got == (want, want)
        assert seconds < 0.5 and peak < 2**20

    @pytest.mark.parametrize("offset, want", [
        ((1, 1), "holds"), ((3, 0), "holds"), ((10**9, -10**9), "holds"),
        ((2**52, 2**52), "holds_not"), ((0, 2 * 10**15), "holds_not")])
    def test_a_huge_tau_on_small_masks(self, offset, want):
        """tau = 1e15 on two 3 x 3 masks, near and far apart: no frame of
        tau² bits, or of the distance between them, is built."""
        a = square_region("a", 0, 0, 3)
        b = square_region("b", offset[0], offset[1], 3, colour="bright")
        got, peak, seconds = bounded_adjacency(a, b, 1e15)
        assert got == (want, want)
        assert peak < 2**16 and seconds < 0.1


class TestRelationalize:
    def test_diverticulum_scene(self):
        spec = builtin_model("diverticulum").model
        scene = generate_stream("surround_scene", 1).frames[0].regions
        net, ev = relationalize(spec, scene)
        assert ev.assignments == {"bright_region": "present", "dark_region": "present",
                                  "topo_relation": "holds"}
        assert net.children["diverticulum"] == ("bright_region", "dark_region", "topo_relation")

    def test_unmatched_input_leaves_relation_unobserved(self):
        spec = builtin_model("diverticulum").model
        scene = (ring_region(),)  # bright only
        _, ev = relationalize(spec, scene)
        assert ev.assignments == {"bright_region": "present", "dark_region": "absent"}

    def test_bend_scene_lands_in_the_near_bin(self):
        spec = builtin_model("bend").model
        scene = generate_stream("adjacent_scene", 1).frames[0].regions
        _, ev = relationalize(spec, scene)
        assert ev.assignments["distance_relation"] == "near"

    def test_binding_prefers_largest_area_then_lowest_id(self):
        small = pixel_region("z", 0, 0)
        big = Region("a", "dark", (5.0, 5.0), 9, (4, 4, 6, 6))
        assert select_region({"colour_class": "dark"}, (small, big)).id == "a"
        other = Region("b", "dark", (9.0, 9.0), 9, (8, 8, 10, 10))
        assert select_region({"colour_class": "dark"}, (other, big)).id == "a"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["dark", "bright", "green"]), st.integers(1, 3)),
                    max_size=8),
           st.sampled_from(["dark", ["dark"], ("bright", "green"), []]),
           st.randoms(use_true_random=False))
    def test_binding_is_the_first_candidate_by_area_then_id(self, specs, colours, rng):
        regions = [Region(f"r{i}", colour, (0.0, 0.0), area, (0, 0, 0, 0))
                   for i, (colour, area) in enumerate(specs)]
        rng.shuffle(regions)
        admitted = colours if isinstance(colours, (list, tuple)) else [colours]
        candidates = sorted((r for r in regions if r.colour_class in admitted),
                            key=lambda r: (-r.area, r.id))
        expected = candidates[0] if candidates else None
        assert select_region({"colour_class": colours}, regions) is expected

    def test_colour_disjunction_predicate(self):
        pred = {"colour_class": ("yellow", "green", "brown")}
        assert select_region(pred, (pixel_region("y", 0, 0, "green"),)).id == "y"
        assert select_region(pred, (pixel_region("d", 0, 0, "dark"),)) is None

    def test_bind_frame_returns_every_bound_node(self):
        spec = builtin_model("bend").model
        bound = bind_frame(spec, Frame(0, 0.0))
        assert bound == {"dark_region": None, "bright_arc": None}

    def test_transform_equals_conditioning(self):
        rng = random.Random(31)
        for name in ("diverticulum", "bend"):
            spec = builtin_model(name).model
            for _ in range(15):
                regions = tuple(random_region(rng, f"r{i}") for i in range(rng.randint(0, 4)))
                net, ev = relationalize(spec, regions)
                inet = apply_evidence(net, ev)
                fast = propagate(inet)
                slow = brute_force_beliefs(inet)
                diff = np.abs(np.subtract(fast.distribution(spec.root), slow.distribution(spec.root))).max()
                assert diff < 1e-12

    def test_diagnostics(self):
        base = builtin_model("diverticulum").model

        def mutate(**changes):
            nodes = []
            for n in base.nodes:
                if n.id == "topo_relation":
                    kwargs = dict(id=n.id, kind=n.kind, states=n.states, parents=n.parents,
                                  rows=n.rows, evaluator=n.evaluator, inputs=n.inputs,
                                  params=n.params)
                    kwargs.update(changes)
                    n = NodeSpec(**kwargs)
                nodes.append(n)
            return NetworkSpec(base.root, tuple(nodes), base.bind)

        assert any("unknown evaluator 'above'" in d
                   for d in relational_diagnostics(mutate(evaluator="above")))
        assert any("expected 2 inputs" in d
                   for d in relational_diagnostics(mutate(inputs=("bright_region",))))
        assert any("not a feature (leaf) node" in d
                   for d in relational_diagnostics(mutate(inputs=("bright_region", "diverticulum"))))
        assert any("states must be {holds, holds_not}" in d
                   for d in relational_diagnostics(mutate(states=("yes", "no"))))
        assert any("strictly positive" in d
                   for d in relational_diagnostics(mutate(params={"tau": -1})))
        assert any("missing evaluator" in d
                   for d in relational_diagnostics(mutate(evaluator=None)))

        bad_bind = NetworkSpec(base.root, base.nodes,
                               {"bright_region": {"colour_class": "maroon"}})
        assert any("unknown colour class 'maroon'" in d for d in relational_diagnostics(bad_bind))
        bad_attr = NetworkSpec(base.root, base.nodes, {"bright_region": {"size": "big"}})
        assert any("unknown predicate attribute" in d for d in relational_diagnostics(bad_attr))

    def test_static_inputs_need_equal_predicates(self):
        def spec(bind):
            rows = ((0.8, 0.2), (0.3, 0.7))
            return NetworkSpec("h", (
                NodeSpec("h", "chance", ("t", "f"), (), ((0.5, 0.5),)),
                NodeSpec("d", "chance", ("present", "absent"), ("h",), rows),
                NodeSpec("b", "chance", ("present", "absent"), ("h",), rows),
                NodeSpec("s", "relation", ("holds", "holds_not"), ("h",), rows,
                         evaluator="static", inputs=("d", "b")),
            ), bind)

        dark, bright = {"colour_class": "dark"}, {"colour_class": "bright"}
        assert relational_diagnostics(spec({"d": dark, "b": bright})) == [
            "relation node s: static inputs 'd' and 'b' are bound by different predicates"]
        assert relational_diagnostics(spec({"d": dark, "b": dict(dark)})) == []
        assert relational_diagnostics(spec({"d": dark})) == []
        # predicates admitting the same colour classes bind the same region
        assert relational_diagnostics(spec({"d": dark, "b": {"colour_class": ["dark"]}})) == []
        either = {"colour_class": ["dark", "bright"]}
        assert relational_diagnostics(spec({"d": either, "b": {"colour_class": ["bright", "dark"]}})) == []
        assert relational_diagnostics(spec({"d": either, "b": dark})) == [
            "relation node s: static inputs 'd' and 'b' are bound by different predicates"]

    def test_relationalize_rejects_invalid_spec(self):
        base = builtin_model("diverticulum").model
        bad = NetworkSpec(base.root, base.nodes, {"bright_region": {"colour_class": "maroon"}})
        with pytest.raises(InvalidNetworkError):
            relationalize(bad, ())
