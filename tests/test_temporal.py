import itertools
import json
import math
import random
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefscope import cli, relational, temporal
from beliefscope.errors import (
    FrameInferenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    SpecSyntaxError,
    StreamValidationError,
)
from beliefscope.endoscopy import SCENARIOS, generate_stream
from beliefscope.models import (
    MODES,
    DynamicModel,
    TemporalModel,
    builtin_model,
    compile_rule,
    dynamic_from_document,
    dynamic_to_document,
    semi_static_from_document,
    semi_static_to_document,
    window_spec,
)
from beliefscope.network import (
    NetworkSpec,
    NodeSpec,
    apply_evidence,
    load_json,
    network_diagnostics,
    normalised_rows,
)
from beliefscope.propagation import brute_force_beliefs, propagate, sig10
from beliefscope.relational import Region, RegionTable, relationalize, select_region
from beliefscope.temporal import (
    BeliefTrace,
    Frame,
    FrameBelief,
    FrameStream,
    build_dynamic_window,
    dynamic_trace,
    filter_chunks,
    filter_stream,
    match_regions,
    parse_stream,
    stream_to_jsonl,
)

from helpers import (
    all_pairs_matching,
    chain_model,
    eq3_step,
    frame_likelihood,
    hex_rows,
    mutated,
    normalized,
    numpy_mixed_prior,
    numpy_posterior,
    pattern_frames,
    random_region,
    reference_load_json,
    reference_parse_stream,
    unrolled_chain_spec,
)
from test_relational import SWEEP_BASES, mask_documents, single_edits


def dark_pixel(rid="d", x=0, y=0):
    return Region(id=rid, colour_class="dark", centroid=(float(x), float(y)), area=1,
                  bbox=(x, y, x, y))


def frames_with_dark(n, dt=0.04):
    return FrameStream(tuple(Frame(i, round(i * dt, 6), (dark_pixel(),)) for i in range(n)), dt)


def region_line(rid='"r"', centroid="[1, 1]", area="9", bbox="[0, 0, 2, 2]", mask=None):
    """A one-frame stream line with one region, fields given as JSON text."""
    extra = "" if mask is None else ', "mask": %s' % mask
    return ('{"index": 0, "t": 0.0, "regions": [{"id": %s, "colour_class": "dark", '
            '"centroid": %s, "area": %s, "bbox": %s%s}]}' % (rid, centroid, area, bbox, extra))


def tree_route(model, stream, window):
    """Each window's hypothesis posterior via its explicit tree and propagate,
    or the FrameInferenceError the first impossible window raises."""
    frames = stream.frames
    k = min(window, len(frames))
    posteriors = []
    for end in range(k - 1, len(frames)):
        net, ev = build_dynamic_window(model, frames[end - k + 1:end + 1])
        try:
            beliefs = propagate(apply_evidence(net, ev))
        except ImpossibleEvidenceError as exc:
            return FrameInferenceError(frames[end].index, exc)
        posteriors.append(beliefs.distribution(model.hypothesis_id))
    return posteriors


def explicit_route(model, stream):
    """Each frame's (effective prior, posterior) through relationalize on the
    per-frame spec with the effective prior as its root prior, then propagate;
    or the FrameInferenceError of the first impossible frame."""
    spec = model.per_frame
    static = np.asarray(spec.node(spec.root).rows[0], dtype=float)
    static = static / static.sum()
    transition = normalised_rows(model.transition)  # as filtering reads the checked rows
    out, prev = [], None
    for frame in stream.frames:
        eff = static if prev is None else numpy_mixed_prior(
            static, transition, prev, model.mode == "paper")
        if eff is None:
            raise ImpossibleEvidenceError(None, "effective prior has zero mass")
        try:
            net, ev = relationalize(spec.with_root_prior(eff), frame.regions)
            post = propagate(apply_evidence(net, ev)).distribution(spec.root)
        except ImpossibleEvidenceError as exc:
            return FrameInferenceError(frame.index, exc)
        out.append((eff, post))
        prev = post
    return out


def assert_routes_equal(model, stream):
    trace = filter_stream(model, stream)
    expected = explicit_route(model, stream)
    assert len(trace.frames) == len(expected)
    for fb, (eff, post) in zip(trace.frames, expected):
        assert np.array_equal(fb.effective_prior, eff), fb.index
        assert np.array_equal(fb.posterior, post), fb.index


def masked_adjacency_model(rng):
    """A 3-state hypothesis over two colour-bound features and their adjacency."""
    hyp = ("none", "fold", "polyp")
    nodes = (
        NodeSpec("lesion", "chance", hyp, (), (normalized(rng, 3),)),
        NodeSpec("dark_fold", "chance", ("present", "absent"), ("lesion",),
                 tuple(normalized(rng, 2) for _ in hyp)),
        NodeSpec("bright_rim", "chance", ("present", "absent"), ("lesion",),
                 tuple(normalized(rng, 2) for _ in hyp)),
        NodeSpec("touching", "relation", ("holds", "holds_not"), ("lesion",),
                 tuple(normalized(rng, 2) for _ in hyp), evaluator="adjacent",
                 inputs=("dark_fold", "bright_rim"), params={"tau": 2.5}),
    )
    spec = NetworkSpec("lesion", nodes, {"dark_fold": {"colour_class": "dark"},
                                         "bright_rim": {"colour_class": "bright"}})
    return TemporalModel(spec, np.array([normalized(rng, 3) for _ in hyp]))


def deep_model(rng):
    """A per-frame tree that is not a star: root -> internal chance node ->
    bound leaves, with a distance relation under the root."""
    nodes = (
        NodeSpec("scene", "chance", ("lumen", "wall"), (), (normalized(rng, 2),)),
        NodeSpec("view", "chance", ("near", "mid", "far"), ("scene",),
                 tuple(normalized(rng, 3) for _ in range(2))),
        NodeSpec("dark_region", "chance", ("present", "absent"), ("view",),
                 tuple(normalized(rng, 2) for _ in range(3))),
        NodeSpec("bright_region", "chance", ("present", "absent"), ("view",),
                 tuple(normalized(rng, 2) for _ in range(3))),
        NodeSpec("gap", "relation", ("near", "far"), ("scene",),
                 tuple(normalized(rng, 2) for _ in range(2)), evaluator="distance",
                 inputs=("dark_region", "bright_region"), params={"tau": 5.0}),
    )
    spec = NetworkSpec("scene", nodes, {"dark_region": {"colour_class": "dark"},
                                        "bright_region": {"colour_class": "bright"}})
    return TemporalModel(spec, np.array([normalized(rng, 2) for _ in range(2)]), mode="filter")


def random_scene_stream(rng, n_frames):
    """Frames of masked dark/bright regions, each present with probability
    0.8, placed close enough that their adjacency and distance vary."""
    frames = []
    for i in range(n_frames):
        regions = []
        for rid, colour in (("d", "dark"), ("b", "bright")):
            if rng.random() < 0.8:
                regions.append(random_region(rng, rid, colour=colour,
                                             origin=(rng.randint(0, 8), rng.randint(0, 8))))
        frames.append(Frame(i, round(i * 0.04, 6), tuple(regions)))
    return FrameStream(tuple(frames), 0.04)


def three_state_distance_model():
    """A 3-state hypothesis over distance relations, to exercise sums of more
    than two terms."""
    return replace(builtin_model("dirty_lens").model, hypothesis_states=("a", "b", "c"),
                   prior=(0.2, 0.3, 0.5),
                   feature_rows=((0.7, 0.3), (0.35, 0.65), (0.1, 0.9)),
                   relation_evaluator="distance",
                   relation_rows=((0.6, 0.4), (0.45, 0.55), (0.15, 0.85)),
                   params={"tau": 2.5})


def of_model():
    """The 2-node hypothesis/feature net with 0.9/0.2 likelihood, dark-bound."""
    spec = NetworkSpec("O", (
        NodeSpec("O", "chance", ("t", "f"), (), ((0.5, 0.5),)),
        NodeSpec("F", "chance", ("present", "absent"), ("O",), ((0.9, 0.1), (0.2, 0.8))),
    ), {"F": {"colour_class": "dark"}})
    return TemporalModel(spec, np.array([[0.9, 0.1], [0.1, 0.9]]), mode="paper")


#: probabilities with zeros, subnormals and the smallest normal
PROBABILITY = st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0]) | st.floats(0.0, 1e-300) \
    | st.floats(0.0, 1.0)


@st.composite
def scan_steps(draw):
    """(prior, transition, previous posterior, λ) over k = 2-12 states; λ may be all NaN."""
    k = draw(st.integers(2, 12))
    row = st.lists(PROBABILITY, min_size=k, max_size=k).map(tuple)
    lam = row | st.just((math.nan,) * k)
    return draw(row), draw(st.lists(row, min_size=k, max_size=k)), draw(row), draw(lam)


class TestSemiStaticPrior:
    def test_paper_mode_worked_numbers(self):
        eff = temporal._mixed_prior((0.5, 0.5), ((0.9, 0.1), (0.1, 0.9)), (1.0, 0.0), True)
        assert eff == pytest.approx((0.9, 0.1), abs=1e-12)

    def test_uniform_transition_returns_the_prior(self):
        eff = temporal._mixed_prior((0.3, 0.7), ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5), True)
        assert eff == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_identity_transition_filter_passes_belief_through(self):
        eff = temporal._mixed_prior((0.4, 0.6), ((1.0, 0.0), (0.0, 1.0)), (0.7, 0.3), False)
        assert eff == pytest.approx((0.7, 0.3), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(scan_steps(), st.booleans())
    def test_steps_equal_numpy_bit_for_bit(self, step, paper):
        # past 8 states np.sum adds pairwise, and the λ row is NaN where support vanished
        prior, transition, prev, lam = step
        want = numpy_mixed_prior(prior, transition, prev, paper)
        if want is None:
            with pytest.raises(ImpossibleEvidenceError, match="effective prior has zero mass"):
                temporal._mixed_prior(prior, transition, prev, paper)
        else:
            got = temporal._mixed_prior(prior, transition, prev, paper)
            assert hex_rows([got]) == hex_rows([want.tolist()])
        want = numpy_posterior(prior, lam)
        got = temporal.posterior(prior, lam)
        if np.isnan(want).any():
            assert got is None
        else:
            assert hex_rows([got]) == hex_rows([want.tolist()])

    def test_zero_mass_steps(self):
        with pytest.raises(ImpossibleEvidenceError, match="effective prior has zero mass") as err:
            temporal._mixed_prior((1.0, 0.0), ((0.0, 1.0), (0.5, 0.5)), (1.0, 0.0), True)
        assert err.value.node is None
        assert temporal.posterior((1.0, 0.0), (0.0, 1.0)) is None
        assert temporal.posterior((0.5, 0.5), (math.nan, math.nan)) is None
        assert temporal.posterior((5e-324, 0.0), (0.5, 0.5)) is None  # the product underflows


def _object_text(values, keys=("index", "t", "regions", "id", "area", "a:b", ":")):
    """JSON object text from (key, value text) pairs; in half of them keys may repeat."""
    pair = st.tuples(st.sampled_from(keys), values)
    pairs = st.lists(pair, max_size=4, unique_by=lambda kv: kv[0]) | st.lists(pair, max_size=4)
    return pairs.map(lambda kvs: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in kvs) + "}")


JSON_SCALARS = st.sampled_from(["0", "-2", "0.5", '"x"', '"a:b"', "true", "null", "1e999"])
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
    | _object_text(inner),
    max_leaves=8)


@st.composite
def frame_lines(draw):
    """Frame-like lines: an object of pairs with a 'regions' list of objects,
    repeated keys, colons inside strings, nested objects and syntax errors."""
    regions = draw(st.lists(_object_text(JSON_VALUES) | JSON_VALUES, max_size=3))
    pairs = draw(_object_text(JSON_VALUES, keys=("index", "t", "id", "a:b", ":")))
    line = pairs[:-1] + (", " if pairs != "{}" else "") + '"regions": [' + ", ".join(regions) + "]}"
    damage = draw(st.sampled_from(["none"] * 8 + ["cut", "nan"]))
    if damage == "cut":
        cut = draw(st.integers(0, len(line) - 1))
        line = line[:cut] + line[cut + 1:]
    elif damage == "nan" and "0.5" in line:
        line = line.replace("0.5", "NaN", 1)
    return line


class TestStream:
    @settings(max_examples=120, deadline=None)
    @given(frame_lines())
    def test_frame_lines_decode_like_the_checked_decoder(self, line):
        """The colon count lets a line skip the duplicate-key hook only when
        no key can repeat, so the result or the error is the checked decoder's."""
        try:
            expected = reference_load_json(line, line=7)
        except SpecSyntaxError as exc:
            with pytest.raises(SpecSyntaxError) as info:
                load_json(line, line=7)
            assert str(info.value) == str(exc)
        else:
            assert load_json(line, line=7) == expected

    @pytest.mark.parametrize("line, message", [
        pytest.param('{"index": 0, "index": 1, "t": 0.0}', "duplicate key 'index'", id="frame"),
        pytest.param(region_line(area='9, "area": 4'), "duplicate key 'area'", id="region"),
        pytest.param(region_line(centroid='{"x": 1, "x": 2}'), "duplicate key 'x'", id="nested"),
        pytest.param(region_line(rid='"a:b", "id": "c"'), "duplicate key 'id'", id="colon-in-id"),
    ])
    def test_repeated_keys_are_named(self, line, message):
        with pytest.raises(SpecSyntaxError) as info:
            parse_stream('{"dt": 0.04}\n' + line)
        assert str(info.value) == f"stream line 2: {message}"

    @pytest.mark.parametrize("region, message", [
        pytest.param(region_line().replace('"dark"', '"purple"'),
                     "region 'r': unknown colour class 'purple'", id="colour"),
        pytest.param(region_line(mask="[[1, 1, 1], [1, 1, 1]]"),
                     "region 'r': mask shape (2, 3) does not match bbox 3x3", id="mask"),
        pytest.param(region_line().replace('"area": 9, ', ""),
                     "malformed region entry: 'area'", id="malformed"),
    ])
    def test_region_errors_name_the_line_of_the_file(self, region, message):
        second = region.replace('"index": 0, "t": 0.0', '"index": 1, "t": 0.04')
        with pytest.raises(SpecSyntaxError) as info:
            parse_stream('{"dt": 0.04}\n' + region_line() + "\n\n" + second)
        assert str(info.value) == f"stream line 4: {message}"

    def test_colons_inside_strings(self):
        stream = parse_stream('{"dt": 0.04}\n' + region_line(rid='"a:b::"'))
        assert stream.frames[0].regions[0].id == "a:b::"

    def test_round_trip(self):
        stream = generate_stream("static_spot", 4, seed=3)
        assert stream_to_jsonl(parse_stream(stream_to_jsonl(stream))) == stream_to_jsonl(stream)

    def test_out_of_order_frames_rejected(self):
        with pytest.raises(StreamValidationError, match="out of order"):
            FrameStream((Frame(1, 0.04), Frame(0, 0.0)), 0.04)

    def test_interval_deviation_rejected(self):
        with pytest.raises(StreamValidationError, match="deviates from dt"):
            FrameStream((Frame(0, 0.0), Frame(1, 0.1)), 0.04)

    def test_bad_dt(self):
        with pytest.raises(StreamValidationError, match="dt must be positive"):
            FrameStream((), 0.0)

    def test_parse_errors(self):
        with pytest.raises(SpecSyntaxError, match="header"):
            parse_stream('{"index": 0, "t": 0.0, "regions": []}')
        with pytest.raises(SpecSyntaxError, match="line 2"):
            parse_stream('{"dt": 0.04}\n{"t": 0.0}')

    def test_errors_name_the_line_of_the_file(self):
        frames = '{"index": 0, "t": 0.0}\n\n{"t": 0.04}\n'
        with pytest.raises(SpecSyntaxError, match="^stream line 5: expected"):
            parse_stream('{"dt": 0.04}\n\n' + frames)
        with pytest.raises(SpecSyntaxError, match="^stream line 3: 'index'"):
            parse_stream('\n{"dt": 0.04}\n{"index": 0.5, "t": 0.0}\n')

    @pytest.mark.parametrize("text, position", [
        pytest.param('{"dt": 0.04}\n{"index": 0, "t": 0.0}\n\n{"index": 1, "t": 0.04,}\n',
                     "(line 4, column 24)", id="frame"),
        pytest.param('\n\n{"dt": 0.04\n', "(line 3, column 12)", id="header"),
        pytest.param('{"dt": 0.04}\n{"index": 0, "t": 0.0, "regions": [}\n',
                     "(line 2, column 36)", id="regions"),
    ])
    def test_json_syntax_errors_point_into_the_file(self, text, position):
        with pytest.raises(SpecSyntaxError) as info:
            parse_stream(text)
        assert str(info.value).endswith(position)

    @pytest.mark.parametrize("header, frame, message", [
        pytest.param('{"dt": NaN}', '{"index": 0, "t": 0.0}', "non-finite number 'NaN'", id="dt-nan"),
        pytest.param('{"dt": 1e999}', '{"index": 0, "t": 0.0}', "'dt': expected a finite", id="dt-inf"),
        pytest.param('{"dt": "0.04"}', '{"index": 0, "t": 0.0}', "'dt': expected a finite", id="dt-str"),
        pytest.param('{"dt": 0.04}', '{"index": 0, "t": NaN}', "non-finite number 'NaN'", id="t-nan"),
        pytest.param('{"dt": 0.04}', '{"index": 0, "t": -1e999}', "'t': expected a finite", id="t-inf"),
        pytest.param('{"dt": 0.04}', '{"index": 0, "t": true}', "'t': expected a finite", id="t-bool"),
        pytest.param('{"dt": 0.04}', '{"index": 0, "t": 1%s}' % ("0" * 400),
                     "'t': expected a finite", id="t-int-overflows-float"),
        pytest.param('{"dt": 0.04}', '{"index": 0.9, "t": 0.0}', "'index' must be an integer",
                     id="index-float"),
        pytest.param('{"dt": 0.04}', '{"index": true, "t": 0.0}', "'index' must be an integer",
                     id="index-bool"),
        pytest.param('{"dt": 0.04}', region_line(centroid='["nan", 0]'),
                     "'centroid': expected a finite", id="centroid-str"),
        pytest.param('{"dt": 0.04}', region_line(centroid="[0, 1e999]"),
                     "'centroid': expected a finite", id="centroid-inf"),
        pytest.param('{"dt": 0.04}', region_line(area="9.7"), "'area' must be an integer",
                     id="area-float"),
        pytest.param('{"dt": 0.04}', region_line(bbox="[true, 0, 2, 2]"),
                     "'bbox' entry must be an integer", id="bbox-bool"),
        pytest.param('{"dt": 0.04}', region_line(rid='["r"]'), "'id' must be a string",
                     id="region-id-list"),
        pytest.param('{"dt": 0.04}', region_line(area="9007199254740993"),
                     r"'area' must be an integer in \[-2\*\*53, 2\*\*53\]", id="area-beyond-2**53"),
        pytest.param('{"dt": 0.04}', region_line(area="1" + "0" * 400),
                     r"region 'r': 'area' must be an integer in", id="area-beyond-float"),
        pytest.param('{"dt": 0.04}', region_line(bbox="[0, 0, 2, 9007199254740993]"),
                     r"region 'r': 'bbox' entries must be integers in", id="bbox-beyond-2**53"),
        pytest.param('{"dt": 0.04}', region_line(bbox="[-9007199254740993, 0, 2, 2]"),
                     r"region 'r': 'bbox' entries must be integers in", id="bbox-below-2**53"),
        pytest.param('{"dt": 0.04}', region_line(area="1", bbox="[0, 0, 0, 0]", mask="[[2]]"),
                     "region 'r': mask entries must be 0 or 1", id="mask-2"),
        pytest.param('{"dt": 0.04}', region_line(area="1", bbox="[0, 0, 0, 0]", mask="[[true]]"),
                     "region 'r': mask entries must be 0 or 1", id="mask-true"),
        pytest.param('{"dt": 0.04}', region_line(area="2", bbox="[0, 0, 1, 0]", mask="[[1, 1.0]]"),
                     "region 'r': mask entries must be 0 or 1", id="mask-float-one"),
        pytest.param('{"dt": 0.04}', region_line(area="1", bbox="[0, 0, 1, 0]", mask="[[1, 0], [1]]"),
                     "region 'r': mask is not a grid of 1 rows of 2 entries",
                     id="mask-ragged-names-its-region"),
        pytest.param('{"dt": 0.04}', region_line(area="1", bbox="[0, 0, 0, 0]", mask='[["a", 1]]'),
                     r"mask shape \(1, 2\) does not match bbox 1x1", id="mask-misshaped-keeps-its-message"),
        pytest.param('{"dt": 0.04}', '{"index": 0, "t": 0.0, "regions": 5}',
                     "line 2: 'regions' must be a list", id="regions-int"),
    ])
    def test_non_finite_and_mistyped_fields_rejected(self, header, frame, message):
        with pytest.raises(SpecSyntaxError, match=message):
            parse_stream(f"{header}\n{frame}")

    @pytest.mark.parametrize("header, message", [
        pytest.param('{"dt": NaN}', "non-finite number 'NaN' is not allowed", id="nan"),
        pytest.param('{"dt": 1e999}', "stream header 'dt': expected a finite number", id="overflow"),
        pytest.param('{"dt": 0.04, "dt": 0.05}', "duplicate key 'dt'", id="repeated-key"),
        pytest.param('{"index": 0, "t": 0.0}', 'stream header must be {"dt": ...}', id="no-header"),
    ])
    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "line-blocks"])
    def test_header_errors_name_the_header_line(self, header, message, whole):
        lines = ["", " ", header, '{"index": 0, "t": 0.0}']
        with pytest.raises(SpecSyntaxError) as info:
            if whole:
                parse_stream("\n".join(lines))
            else:
                list(temporal.read_stream(line + "\n" for line in lines))
        assert str(info.value) == f"stream line 3: {message}"

    def test_region_integers_within_2_pow_53_are_exact(self):
        limit = 2**53
        stream = parse_stream('{"dt": 0.04}\n' + region_line(
            area=str(limit), bbox=f"[{-limit}, 0, {limit}, 2]"))
        region = stream.frames[0].regions[0]
        assert (region.area, region.bbox) == (limit, (-limit, 0, limit, 2))

    def test_duplicate_region_ids_in_frame(self):
        with pytest.raises(StreamValidationError, match="duplicate region id"):
            Frame(0, 0.0, (dark_pixel("a"), dark_pixel("a", 5)))


FRAME_EDITS = ("none", "region", "duplicate-id", "index", "t", "unknown-key", "drop-key",
               "huge-int", "regions")


@st.composite
def hostile_streams(draw):
    """Small streams of valid frames (masked regions and integers at ±2**53
    among them), then at most one hostile edit: one of ``single_edits`` of a
    region, or a repeated region id, an index out of order or negative, a bad
    ``t``, an unknown or missing key, a huge integer or a bad regions list."""
    frames = []
    for i in range(draw(st.integers(1, 6))):
        bases = draw(st.lists(st.sampled_from(SWEEP_BASES), max_size=3))
        regions = [json.loads(json.dumps({**base, "id": f"{base['id']}{j}"}))
                   for j, base in enumerate(bases)]
        frames.append({"index": 3 * i, "t": round(i * 0.04, 6), "regions": regions})
    edit = draw(st.sampled_from(FRAME_EDITS))
    frame = draw(st.sampled_from(frames))
    regions = frame["regions"]
    if edit == "region" and regions:
        j = draw(st.integers(0, len(regions) - 1))
        edits = list(single_edits(regions[j]))
        regions[j] = edits[draw(st.integers(0, len(edits) - 1))]
    elif edit == "duplicate-id" and regions:
        regions.append(dict(draw(st.sampled_from(regions))))
    elif edit == "index":
        frame["index"] = draw(st.sampled_from([-1, 0, 3, frame["index"] - 1, True, 2.0, None]))
    elif edit == "t":
        frame["t"] = draw(st.sampled_from([None, "0", True, 1e999, 10**400, 7, 0.5, -1e308]))
    elif edit == "unknown-key":
        frame[draw(st.sampled_from(["id", "Regions", "mask"]))] = 0
    elif edit == "drop-key":
        del frame[draw(st.sampled_from(["index", "t", "regions"]))]
    elif edit == "huge-int":
        key = draw(st.sampled_from(["index", "t", "area", "bbox", "centroid"]))
        huge = draw(st.sampled_from([2**63, -2**63 - 1, 10**30, 2**53 + 1]))
        if key in ("index", "t"):
            frame[key] = huge
        elif regions:
            region = regions[0]
            region[key] = huge if key == "area" else [huge] + region[key][1:]
    elif edit == "regions":
        frame["regions"] = draw(st.sampled_from([None, {}, "r", [[]], [None]]))
    text = "\n".join([json.dumps({"dt": 0.04})] + [json.dumps(f) for f in frames])
    if draw(st.booleans()):   # a literal the decoder reads as an infinite float
        text = text.replace("Infinity", "1e999")
    return text + draw(st.sampled_from(["\n", "", "\n\n"]))


def assert_same_stream(stream, expected):
    assert stream.dt == expected.dt
    assert len(stream.frames) == len(expected.frames)
    for frame, want in zip(stream.frames, expected.frames):
        assert (frame.index, frame.t) == (want.index, want.t)
        assert (type(frame.index), type(frame.t)) == (type(want.index), type(want.t))
        assert len(frame.regions) == len(want.regions)
        for region, reference in zip(frame.regions, want.regions):
            for name in ("id", "colour_class", "centroid", "area", "bbox"):
                value = getattr(region, name)
                assert value == getattr(reference, name), name
                assert type(value) is type(getattr(reference, name)), name
            assert list(map(type, region.centroid)) == list(map(type, reference.centroid))
            assert list(map(type, region.bbox)) == list(map(type, reference.bbox))
            if reference.mask is None:
                assert region.mask is None
            else:
                assert type(region.mask) is int and region.mask == reference.mask


def assert_refusal_named_like_the_reference(text) -> bool:
    """Whether the column passes turn down the frame lines of ``text``, as one
    chunk; if they do, _checked_frames raises the error of
    :func:`reference_parse_stream`, so its unnamed refusal never fires."""
    lines = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()][1:]
    if temporal._column_frames(lines) is not None:
        return False
    with pytest.raises(Exception) as expected:
        reference_parse_stream(text)
    with pytest.raises(Exception) as named:
        temporal._checked_frames(lines)
    assert (type(named.value), str(named.value)) == (type(expected.value), str(expected.value))
    return True


def assert_parses_like_the_reference(text, chunk, classes):
    """parse_stream, ``chunk`` frame lines at a time, gives the frames and
    regions of :func:`reference_parse_stream`, every one built by the column
    passes, or raises its error, and ``regions_of(classes)`` reuses the
    Regions of ``regions``."""
    try:
        expected = reference_parse_stream(text)
    except Exception as exc:
        with mock.patch.object(temporal, "CHUNK_FRAMES", chunk), pytest.raises(Exception) as info:
            parse_stream(text)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    with mock.patch.object(temporal, "CHUNK_FRAMES", chunk):
        stream = parse_stream(text)
    assert {type(frame) for frame in stream.frames} <= {temporal._ColumnFrame}  # no other builder
    for frame, want in zip(stream.frames, expected.frames):
        some = frame.regions_of(classes)   # read first: the full tuple reuses its Regions
        assert [r.id for r in some] == [r.id for r in want.regions if r.colour_class in classes]
        assert frame.regions is frame.regions
        assert all(any(r is s for s in frame.regions) for r in some)
    assert_same_stream(stream, expected)


class TestColumnIngest:
    """parse_stream checks frames and regions in column passes, a chunk of
    lines at a time, and builds a Region only when it is read."""

    @settings(max_examples=400, deadline=None, report_multiple_bugs=False)
    @given(hostile_streams(), st.sampled_from([1, 2, 3, 256]),
           st.sets(st.sampled_from(["dark", "bright", "other", "green", "yellow"])))
    def test_parses_like_the_line_by_line_reference(self, text, chunk, classes):
        assert_parses_like_the_reference(text, chunk, classes)

    @settings(max_examples=400, deadline=None)
    @given(hostile_streams())
    def test_line_by_line_names_every_refused_chunk_like_the_reference(self, text):
        assert_refusal_named_like_the_reference(text)

    @pytest.mark.parametrize("base", SWEEP_BASES, ids=[b["id"] for b in SWEEP_BASES])
    def test_line_by_line_names_every_refused_single_edit_like_the_reference(self, base):
        good = {**base, "id": "ok"}
        refused = 0
        for doc in single_edits(base):
            frames = [{"index": i, "t": round(i * 0.04, 6), "regions": [good, doc][:1 + (i == 1)]}
                      for i in range(3)]
            text = "\n".join([json.dumps({"dt": 0.04})] + list(map(json.dumps, frames)))
            for literal in ("Infinity", "1e999"):
                refused += assert_refusal_named_like_the_reference(text.replace("Infinity", literal))
        assert refused

    @pytest.mark.parametrize("base", SWEEP_BASES, ids=[b["id"] for b in SWEEP_BASES])
    def test_every_single_edit_parses_like_the_reference(self, base):
        """Each edit of a region, in the second chunk of a stream."""
        good = {**base, "id": "ok"}
        for doc in single_edits(base):
            frames = [{"index": i, "t": round(i * 0.04, 6), "regions": [good, doc][:1 + (i == 1)]}
                      for i in range(3)]
            text = "\n".join([json.dumps({"dt": 0.04})] + list(map(json.dumps, frames)))
            for literal in ("Infinity", "1e999"):   # the decoder reads 1e999 as infinite
                assert_parses_like_the_reference(text.replace("Infinity", literal), 1,
                                                 {base["colour_class"]})

    def test_every_frame_edit_parses_like_the_reference(self):
        """Each hostile value of a frame field, a missing or unknown key and a
        repeated region id, on the middle one of three frames."""
        good = SWEEP_BASES[0]
        middle = {"index": 3, "t": 0.04, "regions": [good]}
        values = {"index": [-1, 0, 3, 9, -2**63 - 1, 2**63, 10**30, True, 2.0, None, "1"],
                  "t": [None, "0", True, 1e999, -1e999, 10**400, 2**63, 7, 0.5, -1e308, 0.0],
                  "regions": [None, {}, "r", [], [[]], [None], [1], [good, good]]}
        edits = [{**middle, key: value} for key, vs in values.items() for value in vs]
        edits += [{k: v for k, v in middle.items() if k != key} for key in middle]
        edits += [{**middle, key: 0} for key in ("id", "Regions", "mask")]
        for frame in edits:
            frames = [{"index": 0, "t": 0.0, "regions": [good]}, frame,
                      {"index": 6, "t": 0.08, "regions": [good]}]
            text = "\n".join([json.dumps({"dt": 0.04})] + list(map(json.dumps, frames)))
            for literal in ("Infinity", "1e999"):
                for chunk in (1, 2):
                    assert_parses_like_the_reference(text.replace("Infinity", literal), chunk,
                                                     {"dark"})

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_lines_end_at_newline_only(self, separator):
        text = ('{"dt": 0.04}\n' + region_line(rid=f'"a{separator}b"') + "\n"
                + '{"index": 1, "t": 0.04, "bad": 1}\n')
        with pytest.raises(SpecSyntaxError, match="^stream line 3: expected index, t, regions$"):
            parse_stream(text)
        stream = parse_stream(text.rsplit("\n", 2)[0])
        assert stream.frames[0].regions[0].id == f"a{separator}b"

    def test_crlf_line_ends_are_json_whitespace(self):
        text = '{"dt": 0.04}\n' + region_line() + "\n" + region_line().replace(
            '"index": 0, "t": 0.0', '"index": 1, "t": 0.04') + "\n"
        stream = parse_stream(text.replace("\n", "\r\n"))
        assert_same_stream(stream, parse_stream(text))
        assert [f.index for f in stream.frames] == [0, 1]

    def test_tracking_builds_regions_of_the_admitted_classes_only(self, capsys, monkeypatch,
                                                                tmp_path):
        """Masked rows too: no model here admits the masked "other" regions."""
        text, docs = twelve_region_stream(40, masked=True)
        path = tmp_path / "stream.jsonl"
        path.write_text(text)
        built = []
        table_row, post_init = RegionTable._region, Region.__post_init__

        def counted_row(*fields):
            region = table_row(*fields)
            built.append(region.colour_class)
            return region

        def counted(region):  # a Region built through its public constructor counts too
            built.append(region.colour_class)
            post_init(region)

        monkeypatch.setattr(RegionTable, "_region", staticmethod(counted_row))
        monkeypatch.setattr(Region, "__post_init__", counted)
        for model, admitted in (("dirty_lens", {"yellow", "green", "brown"}),
                                ("lumen_tracker", {"dark"})):
            built.clear()
            assert cli.main(["track", "--model", model, "--stream", str(path)]) == 0
            capsys.readouterr()
            assert set(built) <= admitted
            assert len(built) == sum(r["colour_class"] in admitted for r in docs)

    def test_a_parsed_stream_holds_little_memory_per_region(self):
        frames = 200
        text, docs = twelve_region_stream(frames)
        parse_stream(text)   # imports and caches warmed outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = parse_stream(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(stream.frames) == frames
        assert held / len(docs) < 200, held / len(docs)


GRID = "[[1, 1], [1, 0]]"


def masked_region(mask=GRID, rid='"a"', centroid="[1.0, 2.0]", extra=""):
    """The text of a dark region with a 2x2 bbox and an area of 3, ``extra`` keys
    and ``mask`` (its text, or None for no mask) at its end."""
    text = (f'{{"id": {rid}, "colour_class": "dark", "centroid": {centroid}, "area": 3, '
            f'"bbox": [0, 0, 1, 1]{extra}')
    return text + ("}" if mask is None else f', "mask": {mask}}}')


#: the text of the middle frame's second region, beside canonical masks
MASK_TEXT_CASES = {
    "canonical": masked_region(), "compact": masked_region("[[1,1],[1,0]]"),
    "spaced": masked_region("[ [1, 1], [1, 0] ]"), "negative-zero": masked_region("[[1, 1], [1, -0]]"),
    "true": masked_region("[[1, true], [1, 0]]"), "float-one": masked_region("[[1, 1.0], [1, 0]]"),
    "leading-zero": masked_region("[[1, 01], [1, 0]]"), "wrong-area": masked_region("[[1, 1], [1, 1]]"),
    "ragged": masked_region("[[1, 1], [1]]"), "ragged-entry": masked_region("[[1, [1]], [1, 0]]"),
    "three-rows": masked_region("[[1, 1], [1, 0], [0, 0]]"), "empty-rows": masked_region("[[], []]"),
    "nested": masked_region("[[[1, 1], [1, 0]]]"), "bracket-after": masked_region(GRID + "]"),
    "duplicate-key": masked_region(extra=f', "mask": {GRID}'),
    "id-holds-a-mask": masked_region(rid='"x\\"mask\\": [[1]]"'),
    "id-ends-in-a-backslash": masked_region(rid='"a\\\\"'),
    "escaped-mask-key": masked_region(None, extra=f', "a\\"mask": {GRID}'),
    "escaped-mask-key-beside-mask": masked_region("0", extra=f', "a\\"mask": {GRID}'),
    "null": masked_region("null"), "int": masked_region("7"),
    "string-holding-a-grid": masked_region(f'"{GRID}"'),
    "mask-within-a-mask": masked_region('[[{"mask": [[1]]}, 1], [1, 0]]'),
    "nan-mask": masked_region("NaN"),
    "nan-mask-beside-a-mask-within-a-mask": (masked_region('[[{"mask": [[1]]}, 1], [1, 0]]') + ", "
                                             + masked_region("NaN", rid='"b"')),
    "mask-in-a-centroid": masked_region(centroid=f'[1.0, 2.0, {{"mask": {GRID}}}]'),
    "nan-in-a-centroid": masked_region(centroid="[1.0, 2.0, NaN]"),
    "nan-mask-beside-a-centroid-cut": masked_region("NaN", centroid=f'[1.0, 2.0, {{"mask": {GRID}}}]'),
    "true-mask-beside-a-centroid-cut": masked_region("true", centroid=f'[1.0, 2.0, {{"mask": {GRID}}}]'),
}


def mask_text_stream(region: str) -> str:
    frames = [[masked_region(rid='"p"')], [masked_region(rid='"p"'), region], [masked_region()]]
    return "\n".join(['{"dt": 0.04}'] + [f'{{"index": {i}, "t": {0.04 * i:.2f}, "regions": '
                                           f'[{", ".join(regions)}]}}'
                                           for i, regions in enumerate(frames)]) + "\n"


#: how a frame line may be written: json.dumps, compact, compact but for a space after
#: each colon (so masks are cut, then refused), and with spaces inside the masks' brackets
LAYOUTS = {"dumps": lambda doc: json.dumps(doc),
           "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
           "colon-spaced": lambda doc: json.dumps(doc, separators=(",", ": ")),
           "bracket-spaced": lambda doc: json.dumps(doc).replace("[[", "[ [").replace("]]", "] ]")}


@st.composite
def mask_layout_streams(draw):
    """Streams of masked regions (:func:`mask_documents`, a mask entry sometimes
    hostile) with each frame line in one of the :data:`LAYOUTS`."""
    lines = [json.dumps({"dt": 0.04})]
    for i in range(draw(st.integers(1, 7))):
        regions = draw(st.lists(mask_documents(), max_size=3, unique_by=lambda doc: doc["id"]))
        for doc in regions:
            if draw(st.integers(0, 7)) == 0:
                doc["mask"][0][0] = draw(st.sampled_from([True, 1.0, 2, -1, None, "1", [1]]))
        frame = {"index": i, "t": round(i * 0.04, 6), "regions": regions}
        lines.append(LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](frame))
    return "\n".join(lines) + "\n"


class TestMaskText:
    """Masks laid out as json.dumps writes them are cut out of a chunk's lines and
    checked on their text; every other mask is decoded and written back.  Either
    way a stream parses like the line-by-line reference."""

    @pytest.mark.parametrize("region", MASK_TEXT_CASES.values(), ids=MASK_TEXT_CASES.keys())
    def test_parses_like_the_line_by_line_reference(self, region):
        text = mask_text_stream(region)
        for chunk in (1, 2, 256):
            assert_parses_like_the_reference(text, chunk, {"dark"})
        assert_refusal_named_like_the_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(mask_layout_streams(), st.sampled_from([1, 2, 3, 256]))
    def test_mixed_layouts_parse_like_the_line_by_line_reference(self, text, chunk):
        assert_parses_like_the_reference(text, chunk, {"dark", "bright"})
        assert_refusal_named_like_the_reference(text)

    def test_dumps_layout_masks_are_never_written_back(self):
        """A stream as json.dumps writes it is checked on its cut texts alone."""
        text, _ = twelve_region_stream(40, masked=True)
        dumps = mock.Mock(side_effect=AssertionError("a mask was written back"))
        with mock.patch.object(relational, "json", mock.Mock(dumps=dumps)):
            stream = parse_stream(text)
        assert sum(r.mask is not None for f in stream.frames for r in f.regions) > 40


def twelve_region_stream(n, masked=False):
    """(JSONL text, every region document) of n frames of 12 regions: a
    yellow spot in three of every four frames among dark, bright and other
    distractors; with ``masked``, each "other" distractor has a full mask."""
    lines, docs = [json.dumps({"dt": 0.04})], []
    for i in range(n):
        regions = []
        if i % 4 != 3:
            regions.append({"id": "spot", "colour_class": "yellow", "centroid": [50.0 + i % 2, 40.0],
                            "area": 9, "bbox": [49, 39, 51, 41]})
        while len(regions) < 12:
            k = len(regions)
            x = 100 + 20 * k
            regions.append({"id": f"d{k}", "colour_class": ("dark", "bright", "other")[k % 3],
                            "centroid": [x + 1.0, 200.0], "area": 9, "bbox": [x, 199, x + 2, 201]})
            if masked and k % 3 == 2:
                regions[-1]["mask"] = [[1, 1, 1]] * 3
        docs += regions
        lines.append(json.dumps({"index": i, "t": round(i * 0.04, 6), "regions": regions}))
    return "\n".join(lines) + "\n", docs


class TestFilterStream:
    def test_single_frame_equals_static_inference(self):
        model = of_model()
        trace = filter_stream(model, frames_with_dark(1))
        assert trace.frames[0].posterior == pytest.approx((9 / 11, 2 / 11), abs=1e-12)
        assert trace.frames[0].effective_prior == (0.5, 0.5)
        assert trace.frames[0].bindings == {"F": "d"}

    def test_worked_two_frame_example(self):
        # frozen from the step-by-step rollover formula (and the unrolled
        # enumeration below): exactly 83/89
        trace = filter_stream(of_model(), frames_with_dark(2))
        assert trace.frames[1].posterior[0] == pytest.approx(83 / 89, abs=1e-6)
        assert trace.frames[1].effective_prior == pytest.approx((83 / 110, 27 / 110), abs=1e-12)

    def test_worked_example_against_unrolled_enumeration(self):
        model = of_model()
        spec, ev = unrolled_chain_spec(model.per_frame, model.transition,
                                       [(True,), (True,)])
        from beliefscope.network import validate_network

        beliefs = brute_force_beliefs(apply_evidence(validate_network(spec), ev))
        assert beliefs.probability("hyp_t1", "t") == pytest.approx(83 / 89, abs=1e-12)

    def test_paper_mode_matches_direct_formula(self):
        rng = random.Random(77)
        for _ in range(10):
            spec, transition, colours = chain_model(rng, n_features=2)
            model = TemporalModel(spec, np.asarray(transition), mode="paper")
            frames, pattern = pattern_frames(rng, colours, 8)
            trace = filter_stream(model, FrameStream(frames, 0.04))
            prior = list(spec.node("hyp").rows[0])
            prev = None
            for fb, present in zip(trace.frames, pattern):
                like = frame_likelihood(spec, present)
                if prev is None:
                    eff = prior
                    post = [p * l for p, l in zip(eff, like)]
                    s = sum(post)
                    post = [v / s for v in post]
                else:
                    eff, post = eq3_step(prior, transition, prev, like, "paper")
                assert np.abs(fb.effective_prior - np.asarray(eff)).max() < 1e-12
                assert np.abs(fb.posterior - np.asarray(post)).max() < 1e-12
                prev = post

    def test_modes_coincide_for_uniform_prior(self):
        rng = random.Random(13)
        spec, transition, colours = chain_model(rng, n_features=1)
        nodes = tuple(NodeSpec(n.id, n.kind, n.states, n.parents, ((0.5, 0.5),))
                      if n.id == "hyp" else n for n in spec.nodes)
        spec = NetworkSpec("hyp", nodes, spec.bind)
        frames, _ = pattern_frames(rng, colours, 6)
        stream = FrameStream(frames, 0.04)
        for mode_pair in [("paper", "filter")]:
            t_paper = filter_stream(TemporalModel(spec, np.asarray(transition), mode_pair[0]), stream)
            t_filter = filter_stream(TemporalModel(spec, np.asarray(transition), mode_pair[1]), stream)
            for a, b in zip(t_paper.frames, t_filter.frames):
                assert np.abs(np.subtract(a.posterior, b.posterior)).max() < 1e-12

    def test_filter_mode_equals_unrolled_enumeration(self):
        from beliefscope.network import validate_network

        rng = random.Random(99)
        for _ in range(8):
            spec, transition, colours = chain_model(rng, n_features=2)
            k = rng.randint(2, 6)
            frames, pattern = pattern_frames(rng, colours, k)
            model = TemporalModel(spec, np.asarray(transition), mode="filter")
            trace = filter_stream(model, FrameStream(frames, 0.04))
            unrolled, ev = unrolled_chain_spec(spec, transition, pattern)
            beliefs = brute_force_beliefs(apply_evidence(validate_network(unrolled), ev))
            last = beliefs.distribution(f"hyp_t{k - 1}")
            assert np.abs(np.subtract(trace.frames[-1].posterior, last)).max() < 1e-9

    def test_empty_scenes_drift_towards_stationary_mixture(self):
        model = of_model()
        stream = FrameStream(tuple(Frame(i, round(i * 0.04, 6)) for i in range(12)), 0.04)
        trace = filter_stream(model, stream)
        # step oracle with the all-absent likelihood
        prior = [0.5, 0.5]
        like = [0.1, 0.8]  # P(F=absent | O)
        prev = None
        for fb in trace.frames:
            if prev is None:
                post = [p * l for p, l in zip(prior, like)]
                s = sum(post)
                post = [v / s for v in post]
            else:
                _, post = eq3_step(prior, model.transition, prev, like, "paper")
            assert np.abs(fb.posterior - np.asarray(post)).max() < 1e-12
            prev = post
        # and the trace settles: consecutive change shrinks
        deltas = [abs(a.posterior[0] - b.posterior[0])
                  for a, b in zip(trace.frames, trace.frames[1:])]
        assert deltas[-1] < deltas[0]

    def test_identity_transition_monotone_posterior(self):
        spec = of_model().per_frame
        model = TemporalModel(spec, np.eye(2), mode="filter")
        trace = filter_stream(model, frames_with_dark(6))
        seq = [fb.posterior[0] for fb in trace.frames]
        assert all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))

    def test_frame_errors_carry_the_index(self):
        spec = NetworkSpec("O", (
            NodeSpec("O", "chance", ("t", "f"), (), ((1.0, 0.0),)),
            NodeSpec("F", "chance", ("present", "absent"), ("O",), ((0.0, 1.0), (0.0, 1.0))),
        ), {"F": {"colour_class": "dark"}})
        model = TemporalModel(spec, np.array([[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(FrameInferenceError, match="frame 0") as err:
            filter_stream(model, frames_with_dark(3))
        assert err.value.index == 0

    def test_empty_stream_rejected(self):
        with pytest.raises(StreamValidationError, match="empty"):
            filter_stream(of_model(), FrameStream((), 0.04))

    def test_transition_validation(self):
        spec = of_model().per_frame
        with pytest.raises(InvalidNetworkError, match="2x2"):
            TemporalModel(spec, np.ones((3, 3)) / 3)
        with pytest.raises(InvalidNetworkError, match="row sum"):
            TemporalModel(spec, np.array([[0.7, 0.7], [0.1, 0.9]]))

    def test_invalid_per_frame_spec_and_transition_reported_together(self):
        spec = of_model().per_frame
        bad_row = replace(spec.nodes[1], rows=((0.9, 0.2),) + spec.nodes[1].rows[1:])
        bad_spec = replace(spec, nodes=(spec.nodes[0], bad_row) + spec.nodes[2:],
                           bind={**spec.bind, bad_row.id: {"colour_class": "maroon"}})
        with pytest.raises(InvalidNetworkError) as err:
            TemporalModel(bad_spec, np.array([[0.7, 0.7], [0.1, 0.9]]))
        assert err.value.diagnostics == [
            f"node {bad_row.id}: row sum 1.1 != 1 (row 0)",
            f"bound node {bad_row.id}: unknown colour class 'maroon'",
            "transition: row sum 1.4 != 1 (row 0)",
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_rejected(self, bad):
        spec = of_model().per_frame
        with pytest.raises(InvalidNetworkError, match=r"non-finite entry \(row 1\)"):
            TemporalModel(spec, np.array([[0.9, 0.1], [bad, 0.9]]))

    @pytest.mark.parametrize("entry", ["nan", "0.1", True, None])
    def test_transition_document_entries_must_be_numbers(self, entry):
        doc = semi_static_to_document(of_model())
        doc["transition"][1][0] = entry
        with pytest.raises(SpecSyntaxError, match="'transition': expected a finite number"):
            semi_static_from_document(doc)

    def test_semi_static_document_round_trip(self):
        model = of_model()
        doc = semi_static_to_document(model)
        again = semi_static_from_document(json.loads(json.dumps(doc)))
        assert semi_static_to_document(again) == doc


class TestMatchRegions:
    def test_identity_frames_match_themselves(self):
        regions = (dark_pixel("a", 0), dark_pixel("b", 20))
        f = Frame(0, 0.0, regions)
        assert match_regions(f, Frame(1, 0.04, regions)) == {"a": "a", "b": "b"}

    def test_new_region_stays_unmatched(self):
        prev = Frame(0, 0.0, ())
        cur = Frame(1, 0.04, (dark_pixel("a"),))
        assert match_regions(prev, cur) == {}

    def test_greedy_prefers_the_nearer_candidate(self):
        prev = Frame(0, 0.0, (dark_pixel("p", 0),))
        cur = Frame(1, 0.04, (dark_pixel("far", 7), dark_pixel("near", 3)))
        assert match_regions(prev, cur) == {"p": "near"}

    def test_admissibility_rules(self):
        prev = Frame(0, 0.0, (dark_pixel("p", 0),))
        bright = Region("c", "bright", (0.0, 0.0), 1, (0, 0, 0, 0))
        assert match_regions(prev, Frame(1, 0.04, (bright,))) == {}  # colour
        big = Region("c", "dark", (0.0, 0.0), 3, (0, 0, 2, 0))
        assert match_regions(prev, Frame(1, 0.04, (big,))) == {}  # area ratio 3 > 2
        distant = dark_pixel("c", 11)
        assert match_regions(prev, Frame(1, 0.04, (distant,))) == {}  # 11 > delta

    def test_injective_partial_map(self):
        rng = random.Random(3)
        for _ in range(40):
            prev = Frame(0, 0.0, tuple(dark_pixel(f"p{i}", rng.randint(0, 15), rng.randint(0, 15))
                                       for i in range(4)))
            cur = Frame(1, 0.04, tuple(dark_pixel(f"c{i}", rng.randint(0, 15), rng.randint(0, 15))
                                       for i in range(4)))
            matched = match_regions(prev, cur)
            assert len(set(matched.values())) == len(matched)

    def test_tie_breaks_on_lowest_id_pair(self):
        prev = Frame(0, 0.0, (dark_pixel("a", 0), dark_pixel("b", 2)))
        cur = Frame(1, 0.04, (dark_pixel("x", 1),))
        # both candidates at distance 1: 'a' wins
        assert match_regions(prev, cur) == {"a": "x"}


#: regions whose matchings tie on distance (integer grid, delta 10 reached
#: exactly by 6-8-10 offsets) and sit on the area-ratio edges 0.5 and 2.0;
#: yellow and green are bound by dirty_lens, dark is not
MATCH_REGIONS = st.lists(
    st.tuples(st.sampled_from(["yellow", "green", "dark"]), st.integers(0, 12),
              st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 8])),
    max_size=6,
).map(lambda specs: tuple(Region(f"r{i}", colour, (float(x), float(y)), area, (x, y, x, y))
                          for i, (colour, x, y, area) in enumerate(specs)))


class TestClassMatching:
    @settings(max_examples=300, deadline=None)
    @given(MATCH_REGIONS, MATCH_REGIONS)
    def test_bound_pair_decision_equals_all_pairs_matching(self, prev_regions, cur_regions):
        """Matching within the bound region's colour class decides a window's
        relation exactly as greedy matching over all pairs did."""
        model = builtin_model("dirty_lens").model
        prev, cur = Frame(0, 0.0, prev_regions), Frame(1, 0.04, cur_regions)
        reference = all_pairs_matching(prev, cur, model.delta, temporal.DEFAULT_AREA_RATIO)
        assert match_regions(prev, cur, delta=model.delta) == reference

        a = select_region(model.predicate, prev_regions)
        b = select_region(model.predicate, cur_regions)
        matched = a is not None and b is not None and reference.get(a.id) == b.id
        _, evidence = build_dynamic_window(model, (prev, cur))
        assert (f"{model.relation_id}_0_1" in evidence.assignments) == matched


def _dumped_trace(trace):
    """The trace laid out by json.dumps of each line's document."""
    return "\n".join(json.dumps({
        "index": fb.index,
        "posterior": {s: sig10(p) for s, p in zip(trace.states, fb.posterior)},
        "effective_prior": {s: sig10(p) for s, p in zip(trace.states, fb.effective_prior)},
        "bindings": dict(fb.bindings),
    }) for fb in trace.frames) + "\n"


AWKWARD_TEXT = ['"', "\\", 'a"b\\c', "naïve", "日本", "\x00\x1f\n\t", "\u2028", "🙂", "", "/"]


class TestTraceLayout:
    def test_awkward_names_ids_and_probabilities_are_laid_out_like_json_dumps(self):
        states = tuple(AWKWARD_TEXT[:5])
        probabilities = [0.0, 1.0, 5e-324, 1e-5, 0.1 + 0.2]
        frames = []
        for i in range(len(AWKWARD_TEXT)):
            post = np.array(probabilities[i % 5:] + probabilities[:i % 5])
            bindings = {f"{AWKWARD_TEXT[i]}_{j}": (None if j == i % 3 else AWKWARD_TEXT[-1 - j])
                        for j in range(3)}
            frames.append(FrameBelief(i, post, post[::-1].copy(), bindings))
        frames.append(FrameBelief(99, np.array(probabilities), np.array(probabilities), {}))
        trace = BeliefTrace("h", states, tuple(frames))
        assert trace.to_jsonl() == _dumped_trace(trace)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True),
           st.lists(st.tuples(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
                              st.dictionaries(st.text(max_size=3),
                                              st.none() | st.text(max_size=3), max_size=3),
                              st.booleans()),
                    max_size=4))
    def test_any_trace_is_laid_out_like_json_dumps(self, states, rows):
        shared = np.array([0.25, 0.5, 0.25])
        frames = tuple(FrameBelief(i, np.array(p), shared if same else np.array(p[::-1]), b)
                       for i, (p, b, same) in enumerate(rows))
        trace = BeliefTrace("h", tuple(states), frames)
        assert trace.to_jsonl() == _dumped_trace(trace)


class TestDynamicWindow:
    def test_static_spot_window(self):
        model = builtin_model("dirty_lens").model
        frames = generate_stream("static_spot", 3, seed=7).frames
        net, ev = build_dynamic_window(model, frames)
        assert ev.assignments == {
            "spot_0": "present", "spot_1": "present", "spot_2": "present",
            "static_relation_0_1": "holds", "static_relation_1_2": "holds",
        }
        assert net.children["dirty_lens"] == ("spot_0", "spot_1", "spot_2",
                                              "static_relation_0_1", "static_relation_1_2")

    def test_moving_spot_leaves_relations_unobserved(self):
        model = builtin_model("dirty_lens").model
        frames = generate_stream("moving_spot", 3, seed=7).frames
        _, ev = build_dynamic_window(model, frames)
        assert ev.assignments == {"spot_0": "present", "spot_1": "present", "spot_2": "present"}

    def test_window_length_bounds(self):
        model = builtin_model("dirty_lens").model
        frames = generate_stream("static_spot", 7, seed=7).frames
        with pytest.raises(StreamValidationError, match="window >= 2 required"):
            build_dynamic_window(model, frames[:1])
        with pytest.raises(StreamValidationError, match="exceeds max 5"):
            build_dynamic_window(model, frames[:6])

    def test_trace_slides_and_indexes_by_last_frame(self):
        model = builtin_model("dirty_lens").model
        stream = generate_stream("static_spot", 6, seed=7)
        trace = dynamic_trace(model, stream, window=3)
        assert [fb.index for fb in trace.frames] == [2, 3, 4, 5]
        assert trace.frames[0].bindings == {"spot_0": "spot", "spot_1": "spot", "spot_2": "spot"}

    def test_trace_clamps_window_to_stream_length(self):
        model = builtin_model("dirty_lens").model
        stream = generate_stream("static_spot", 3, seed=7)
        trace = dynamic_trace(model, stream)  # max_window 5, stream of 3
        assert [fb.index for fb in trace.frames] == [2]

    def test_dynamic_document_round_trip(self):
        model = builtin_model("dirty_lens").model
        doc = dynamic_to_document(model)
        again = dynamic_from_document(json.loads(json.dumps(doc)))
        assert dynamic_to_document(again) == doc

    def test_dynamic_model_validation(self):
        with pytest.raises(InvalidNetworkError, match="static or distance"):
            DynamicModel("h", ("present", "absent"), (0.5, 0.5), "s",
                         ((0.8, 0.2), (0.2, 0.8)), {"colour_class": "dark"},
                         "r", "surrounding", ((0.8, 0.2), (0.2, 0.8)))

    def test_dynamic_model_reports_fields_and_window_together(self):
        with pytest.raises(InvalidNetworkError) as err:
            DynamicModel("h", ("present", "absent"), (0.7, 0.7), "s",
                         ((0.8, 0.2), (0.2, 0.8)), {"colour_class": "maroon", "area": "big"},
                         "r", "static", ((0.8, 0.2), (0.2, 0.8)), delta=0.0)
        assert err.value.diagnostics == [
            "match delta must be strictly positive",
            "node h: row sum 1.4 != 1 (row 0)",
            "bound node s_0: unknown colour class 'maroon'",
            "bound node s_0: unknown predicate attribute 'area'",
        ]

    def test_dynamic_model_reports_each_row_once(self):
        with pytest.raises(InvalidNetworkError) as err:
            DynamicModel("h", ("present", "absent"), (0.5, 0.5), "s",
                         ((0.9, 0.2), (0.2, 0.8)), {"colour_class": "dark"},
                         "r", "distance", ((0.8, 0.2), (1.5, 0.8)), params={"tau": -1.0})
        assert err.value.diagnostics == [
            "node s_0: row sum 1.1 != 1 (row 0)",
            "node r_0_1: cpt entry 1.5 outside [0,1] (row 1)",
            "relation node r_0_1: param 'tau' must be strictly positive",
        ]

    def test_dynamic_model_rejects_node_ids_shared_in_a_window(self):
        model = builtin_model("dirty_lens").model
        with pytest.raises(InvalidNetworkError) as err:
            replace(model, hypothesis_id="spot_2")
        assert err.value.diagnostics == ["duplicate node id 'spot_2'"]
        replace(model, hypothesis_id="spot_2", max_window=2)  # windows hold spot_0, spot_1
        with pytest.raises(InvalidNetworkError, match="duplicate node id 'spot_999999999'"):
            replace(model, hypothesis_id="spot_999999999", max_window=10 ** 9)

    def test_shared_window_ids_are_those_of_the_built_windows(self):
        model = builtin_model("dirty_lens").model
        pieces = ("s", "s_", "s_0", "s_1", "s_2", "s_00", "s_02", "s_0_1", "s_2_3", "s_1_2_3", "t")
        for hyp, feature, relation in itertools.product(pieces, repeat=3):
            for max_window in (2, 3, 4):
                ids = {"hypothesis_id": hyp, "feature_id": feature, "relation_id": relation}
                template = SimpleNamespace(**{**vars(model), **ids})  # never validated
                expected = set()
                for k in range(2, max_window + 1):
                    nodes = Counter(n.id for n in window_spec(template, k).nodes)
                    expected |= {nid for nid, count in nodes.items() if count > 1}
                try:
                    replace(model, max_window=max_window, **ids)
                    found = set()
                except InvalidNetworkError as exc:
                    found = {d.split("'")[1] for d in exc.diagnostics
                             if d.startswith("duplicate node id")}
                assert found == expected, (ids, max_window)


#: the shapes of an ``& STATIC`` rule: one or several colours, articles, noise words, case
STATIC_RULES = ["IF yellow spot & STATIC THEN dirty_lens",
                "IF a yellow or green or brown spot & STATIC in image THEN dirty lens",
                "IF the dark round region & static THEN lumen",
                "IF bright arc & STATIC THEN spot_0"]

#: ids whose windows often share node ids: with the hypothesis, or a presence node with
#: a relation node
WINDOW_IDS = st.sampled_from(["s", "s_", "s_0", "s_1", "s_2", "s_3", "s_00", "s_0_1", "s_1_2",
                              "s_2_3", "t"])


def assert_windows_valid(model: DynamicModel):
    """Every window tree a model builds, 2 <= k <= max_window (up to 8), checks clean:
    windows are built unchecked because the model's construction covers them."""
    for k in range(2, min(model.max_window, 8) + 1):
        assert network_diagnostics(window_spec(model, k)) == [], (model, k)


class TestValidByConstruction:
    def test_builtin_and_static_rule_windows(self):
        assert_windows_valid(builtin_model("dirty_lens").model)
        for rule in STATIC_RULES:
            assert_windows_valid(compile_rule(rule))

    def test_windows_of_fuzzed_dynamic_documents(self):
        base = dynamic_to_document(builtin_model("dirty_lens").model)
        valid = 0
        for seed in range(1500):
            try:
                model = dynamic_from_document(mutated(base, random.Random(seed)))
            except (SpecSyntaxError, InvalidNetworkError):
                continue
            assert_windows_valid(model)
            valid += 1
        assert valid >= 40  # a guard: enough mutations construct to exercise the windows

    @settings(max_examples=200, deadline=None)
    @given(WINDOW_IDS, WINDOW_IDS, WINDOW_IDS, st.integers(2, 8),
           st.sampled_from(["static", "distance"]))
    def test_windows_of_models_with_colliding_ids(self, hyp, feature, relation, max_window,
                                                  evaluator):
        try:
            model = replace(builtin_model("dirty_lens").model, hypothesis_id=hyp,
                            feature_id=feature, relation_id=relation, max_window=max_window,
                            relation_evaluator=evaluator, params={})
        except InvalidNetworkError:
            return
        assert_windows_valid(model)


@pytest.mark.parametrize("read, doc", [
    (semi_static_from_document, {"type": "dynamic"}), (semi_static_from_document, []),
    (dynamic_from_document, {"type": "semi_static"}), (dynamic_from_document, None),
])
def test_model_documents_of_the_wrong_type_are_turned_down(read, doc):
    with pytest.raises(SpecSyntaxError, match='must have "type"'):
        read(doc)


class TestStarRoute:
    @pytest.mark.parametrize("model", [builtin_model("dirty_lens").model,
                                       three_state_distance_model()],
                             ids=["dirty_lens", "three_state_distance"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_posteriors_bitwise_equal_to_window_trees(self, model, scenario):
        for seed in (1, 2, 3):
            stream = generate_stream(scenario, 9, seed=seed)
            for window in range(2, 6):
                trace = dynamic_trace(model, stream, window=window)
                expected = tree_route(model, stream, window)
                assert len(trace.frames) == len(expected)
                for fb, post in zip(trace.frames, expected):
                    assert np.array_equal(fb.posterior, post), (seed, window, fb.index)

    @pytest.mark.parametrize("changes", [
        pytest.param({"feature_rows": ((0.0, 1.0), (0.0, 1.0))}, id="present-never-possible"),
        pytest.param({"prior": (1.0, 0.0), "feature_rows": ((0.0, 1.0), (0.2, 0.8))},
                     id="prior-excludes-the-only-explaining-state"),
        pytest.param({"feature_rows": ((0.0, 1.0), (1.0, 0.0))}, id="all-states-ruled-out"),
    ])
    def test_impossible_window_reports_like_the_tree_route(self, changes):
        model = replace(builtin_model("dirty_lens").model, **changes)
        spot = generate_stream("static_spot", 1, seed=7).frames[0].regions
        # three empty frames, then the spot, then one more empty frame
        frames = tuple(Frame(i, round(i * 0.04, 6), spot if i in (3, 4) else ())
                       for i in range(6))
        stream = FrameStream(frames, 0.04)
        expected = tree_route(model, stream, 3)
        assert isinstance(expected, FrameInferenceError)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FrameInferenceError) as err:
                dynamic_trace(model, stream, window=3)
        assert err.value.index == expected.index
        assert str(err.value) == str(expected)
        assert err.value.cause.node == expected.cause.node


class TestSemiStaticRoute:
    @pytest.mark.parametrize("mode", ["paper", "filter"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_lumen_tracker_bitwise_equal_to_per_frame_trees(self, scenario, mode):
        model = replace(builtin_model("lumen_tracker").model, mode=mode)
        for seed in (1, 2, 3):
            assert_routes_equal(model, generate_stream(scenario, 12, seed=seed))

    @pytest.mark.parametrize("build", [masked_adjacency_model, deep_model],
                             ids=["masked-adjacency", "deep-tree"])
    def test_random_models_bitwise_equal_to_per_frame_trees(self, build):
        rng = random.Random(5)
        for _ in range(15):
            model = build(rng)
            for mode in MODES:
                assert_routes_equal(replace(model, mode=mode), random_scene_stream(rng, 10))

    @pytest.mark.parametrize("prior, transition, cpt, message", [
        pytest.param((0.5, 0.5), ((0.9, 0.1), (0.1, 0.9)), ((0.0, 1.0), (0.0, 1.0)),
                     "frame 2: impossible evidence: support vanished at node 'F'",
                     id="leaf-message-vanishes"),
        pytest.param((1.0, 0.0), ((0.9, 0.1), (0.1, 0.9)), ((0.0, 1.0), (0.5, 0.5)),
                     "frame 2: impossible evidence: support vanished at node 'O'",
                     id="root-belief-vanishes"),
        pytest.param((1.0, 0.0), ((0.0, 1.0), (0.5, 0.5)), ((0.5, 0.5), (0.5, 0.5)),
                     "effective prior has zero mass", id="effective-prior-vanishes"),
    ])
    def test_impossible_frame_reports_like_the_tree_route(self, capsys, tmp_path, prior,
                                                          transition, cpt, message):
        spec = NetworkSpec("O", (
            NodeSpec("O", "chance", ("t", "f"), (), (prior,)),
            NodeSpec("F", "chance", ("present", "absent"), ("O",), cpt),
        ), {"F": {"colour_class": "dark"}})
        model = TemporalModel(spec, np.array(transition))
        stream = FrameStream(tuple(Frame(i, round(i * 0.04, 6), (dark_pixel(),) if i == 2 else ())
                                   for i in range(4)), 0.04)
        try:
            expected = str(explicit_route(model, stream))
        except ImpossibleEvidenceError as exc:  # a zero-mass effective prior names no frame
            expected = str(exc)
        assert expected == message
        model_path, stream_path = tmp_path / "model.json", tmp_path / "stream.jsonl"
        model_path.write_text(json.dumps(semi_static_to_document(model)))
        stream_path.write_text(stream_to_jsonl(stream))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["track", "--spec", str(model_path), "--stream", str(stream_path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", message + "\n")

    def test_errors_come_in_stream_order(self):
        # frame 1 binds only the dark region; frame 3 binds both, so with tau
        # NaN its adjacency evaluation raises
        def model(dark_rows):
            rows = ((0.8, 0.2), (0.3, 0.7))
            spec = NetworkSpec("O", (
                NodeSpec("O", "chance", ("t", "f"), (), ((0.5, 0.5),)),
                NodeSpec("D", "chance", ("present", "absent"), ("O",), dark_rows),
                NodeSpec("B", "chance", ("present", "absent"), ("O",), rows),
                NodeSpec("R", "relation", ("holds", "holds_not"), ("O",), rows,
                         evaluator="adjacent", inputs=("D", "B")),
            ), {"D": {"colour_class": "dark"}, "B": {"colour_class": "bright"}})
            return TemporalModel(spec, np.array(((0.9, 0.1), (0.1, 0.9))))

        bright = Region("b", "bright", (5.0, 0.0), 1, (5, 0, 5, 0))
        regions = {1: (dark_pixel(),), 3: (dark_pixel(), bright)}
        stream = FrameStream(tuple(Frame(i, round(i * 0.04, 6), regions.get(i, ()))
                                   for i in range(5)), 0.04)
        with pytest.raises(FrameInferenceError) as err:
            filter_stream(model(((0.0, 1.0), (0.0, 1.0))), stream, tau=math.nan)
        assert str(err.value) == "frame 1: impossible evidence: support vanished at node 'D'"

        # a possible model: frames 0-2 filter cleanly, so the batch raises frame 3's error
        possible = model(((0.8, 0.2), (0.3, 0.7)))
        head = FrameStream(stream.frames[:3], stream.dt)
        _, codes, trace = next(filter_chunks(possible, [head.frames], tau=math.nan))
        assert [belief.index for belief in trace.frames] == [0, 1, 2] and len(codes) == 3
        with pytest.raises(ValueError, match="strictly positive and finite"):
            next(filter_chunks(possible, [stream.frames], tau=math.nan))
