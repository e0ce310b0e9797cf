import itertools
import json
import math
import random
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from beliefscope import cli
from beliefscope.errors import (
    FrameInferenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    SpecSyntaxError,
    StreamValidationError,
)
from beliefscope.endoscopy import SCENARIOS, builtin_model, generate_stream
from beliefscope.network import NetworkSpec, NodeSpec, apply_evidence
from beliefscope.propagation import brute_force_beliefs, propagate
from beliefscope.relational import Region, relationalize
from beliefscope.temporal import (
    DynamicModel,
    Frame,
    MODES,
    FrameStream,
    TemporalModel,
    build_dynamic_window,
    dynamic_from_document,
    dynamic_to_document,
    dynamic_trace,
    filter_frames,
    filter_stream,
    match_regions,
    parse_stream,
    semi_static_from_document,
    semi_static_prior,
    semi_static_to_document,
    stream_to_jsonl,
    window_spec,
)

from helpers import (
    chain_model,
    eq3_step,
    frame_likelihood,
    normalized,
    pattern_frames,
    random_region,
    unrolled_chain_spec,
)


def dark_pixel(rid="d", x=0, y=0):
    return Region(id=rid, colour_class="dark", centroid=(float(x), float(y)), area=1,
                  bbox=(x, y, x, y))


def frames_with_dark(n, dt=0.04):
    return FrameStream(tuple(Frame(i, round(i * dt, 6), (dark_pixel(),)) for i in range(n)), dt)


def region_line(rid='"r"', centroid="[1, 1]", area="9", bbox="[0, 0, 2, 2]"):
    """A one-frame stream line with one region, fields given as JSON text."""
    return ('{"index": 0, "t": 0.0, "regions": [{"id": %s, "colour_class": "dark", '
            '"centroid": %s, "area": %s, "bbox": %s}]}' % (rid, centroid, area, bbox))


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
    out, prev = [], None
    for frame in stream.frames:
        eff = static if prev is None else semi_static_prior(static, model.transition, prev,
                                                            model.mode)
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


class TestSemiStaticPrior:
    def test_paper_mode_worked_numbers(self):
        eff = semi_static_prior((0.5, 0.5), ((0.9, 0.1), (0.1, 0.9)), (1.0, 0.0), "paper")
        assert eff.tolist() == pytest.approx([0.9, 0.1], abs=1e-12)

    def test_uniform_transition_returns_the_prior(self):
        eff = semi_static_prior((0.3, 0.7), ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5), "paper")
        assert eff.tolist() == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_identity_transition_filter_passes_belief_through(self):
        eff = semi_static_prior((0.4, 0.6), ((1.0, 0.0), (0.0, 1.0)), (0.7, 0.3), "filter")
        assert eff.tolist() == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            semi_static_prior((0.5, 0.5), ((1.0,),), (0.5, 0.5), "paper")
        with pytest.raises(ValueError, match="mode"):
            semi_static_prior((0.5, 0.5), ((0.9, 0.1), (0.1, 0.9)), (1.0, 0.0), "smooth")


class TestStream:
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
        pytest.param('{"dt": 0.04}', '{"index": 0, "t": 0.0, "regions": 5}',
                     "line 2: 'regions' must be a list", id="regions-int"),
    ])
    def test_non_finite_and_mistyped_fields_rejected(self, header, frame, message):
        with pytest.raises(SpecSyntaxError, match=message):
            parse_stream(f"{header}\n{frame}")

    def test_duplicate_region_ids_in_frame(self):
        with pytest.raises(StreamValidationError, match="duplicate region id"):
            Frame(0, 0.0, (dark_pixel("a"), dark_pixel("a", 5)))


class TestFilterStream:
    def test_single_frame_equals_static_inference(self):
        model = of_model()
        trace = filter_stream(model, frames_with_dark(1))
        assert trace.frames[0].posterior.tolist() == pytest.approx([9 / 11, 2 / 11], abs=1e-12)
        assert trace.frames[0].effective_prior.tolist() == [0.5, 0.5]
        assert trace.frames[0].bindings == {"F": "d"}

    def test_worked_two_frame_example(self):
        # frozen from the step-by-step rollover formula (and the unrolled
        # enumeration below): exactly 83/89
        trace = filter_stream(of_model(), frames_with_dark(2))
        assert trace.frames[1].posterior[0] == pytest.approx(83 / 89, abs=1e-6)
        assert trace.frames[1].effective_prior.tolist() == pytest.approx([83 / 110, 27 / 110],
                                                                         abs=1e-12)

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
                assert np.abs(a.posterior - b.posterior).max() < 1e-12

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
            assert np.abs(trace.frames[-1].posterior - last).max() < 1e-9

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
                _, post = eq3_step(prior, model.transition.tolist(), prev, like, "paper")
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

        frames = filter_frames(model(((0.8, 0.2), (0.3, 0.7))), stream, tau=math.nan)
        assert [belief.index for _, _, belief in itertools.islice(frames, 3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="strictly positive and finite"):
            next(frames)
