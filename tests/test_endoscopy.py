import math

import pytest

from beliefscope.endoscopy import SCENARIOS, generate_stream
from beliefscope.errors import RuleSyntaxError
from beliefscope.models import DEFAULT_PROBS, DynamicModel, TemporalModel, builtin_model, compile_rule
from beliefscope.network import NetworkSpec, apply_evidence, network_diagnostics, relational_diagnostics
from beliefscope.propagation import propagate
from beliefscope.relational import relationalize
from beliefscope.temporal import build_dynamic_window, dynamic_trace, filter_stream, stream_to_jsonl

from helpers import structure_key

RULE_DIVERTICULUM = "IF bright region surrounding a dark region THEN diverticulum"
RULE_BEND = "IF dark region adjacent to a bright arc THEN bend in the colon"
RULE_DIRTY_LENS = "IF yellow or green or brown spots & static in image THEN lens is dirty"


class TestBuiltins:
    def test_diverticulum_structure(self):
        spec = builtin_model("diverticulum").model
        assert isinstance(spec, NetworkSpec)
        assert {n.id for n in spec.nodes} == {"diverticulum", "bright_region", "dark_region",
                                              "topo_relation"}
        assert spec.node("topo_relation").evaluator == "surrounding"
        assert network_diagnostics(spec) == []
        assert relational_diagnostics(spec) == []

    def test_bend_structure(self):
        spec = builtin_model("bend").model
        assert spec.node("distance_relation").evaluator == "distance"
        assert spec.node("distance_relation").params["tau"] == 6.0
        assert network_diagnostics(spec) + relational_diagnostics(spec) == []

    def test_lumen_tracker_is_semi_static(self):
        model = builtin_model("lumen_tracker").model
        assert isinstance(model, TemporalModel)
        assert model.per_frame.node("lumen").states == ("lumen", "not_lumen")
        assert model.transition[0][0] == DEFAULT_PROBS["transition_persist"]

    def test_dirty_lens_is_dynamic(self):
        model = builtin_model("dirty_lens").model
        assert isinstance(model, DynamicModel)
        assert model.relation_evaluator == "static"
        assert sorted(model.predicate["colour_class"]) == ["brown", "green", "yellow"]
        assert model.max_window == 5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model 'volcano'"):
            builtin_model("volcano")

    def test_defaults_override(self):
        spec = builtin_model("diverticulum", {"feature_given_present": 0.95}).model
        assert spec.node("bright_region").rows[0][0] == 0.95
        with pytest.raises(ValueError, match="unknown default probability roles"):
            builtin_model("bend", {"mystery": 0.5})


class TestCompileRule:
    def test_rule_1_isomorphic_to_diverticulum(self):
        for text in (RULE_DIVERTICULUM, "IF bright region SURROUNDING dark region THEN diverticulum"):
            compiled = compile_rule(text)
            assert structure_key(compiled) == structure_key(builtin_model("diverticulum").model)

    def test_rule_2_isomorphic_to_bend(self):
        for text in (RULE_BEND, "IF dark region ADJACENT bright region THEN bend"):
            compiled = compile_rule(text)
            assert structure_key(compiled) == structure_key(builtin_model("bend").model)
            assert compiled.nodes[-1].evaluator == "distance"

    def test_rule_4_isomorphic_to_dirty_lens(self):
        compiled = compile_rule(RULE_DIRTY_LENS)
        assert isinstance(compiled, DynamicModel)
        assert structure_key(compiled) == structure_key(builtin_model("dirty_lens").model)

    def test_unknown_relation_keyword(self):
        with pytest.raises(RuleSyntaxError, match="unknown relation NEXTTO") as err:
            compile_rule("IF dark region NEXTTO bright region THEN bend")
        assert err.value.position == len("IF dark region ")

    def test_unknown_colour_class(self):
        with pytest.raises(RuleSyntaxError, match="unknown colour class 'purple'"):
            compile_rule("IF purple region THEN lesion")

    def test_malformed_rules(self):
        with pytest.raises(RuleSyntaxError, match="expected IF"):
            compile_rule("WHEN bright region THEN thing")
        with pytest.raises(RuleSyntaxError, match="unexpected end of rule"):
            compile_rule("IF bright region")
        with pytest.raises(RuleSyntaxError, match="expected an object after THEN"):
            compile_rule("IF bright region THEN")
        with pytest.raises(RuleSyntaxError, match="expected '&' before STATIC"):
            compile_rule("IF bright region STATIC THEN thing")
        with pytest.raises(RuleSyntaxError, match="expected a noun"):
            compile_rule("IF bright SURROUNDING dark region THEN thing")

    def test_unary_rule(self):
        spec = compile_rule("IF dark region THEN lumen")
        assert isinstance(spec, NetworkSpec)
        assert [n.id for n in spec.nodes] == ["lumen", "dark_region"]

    def test_compiled_rules_are_runnable(self):
        spec = compile_rule(RULE_DIVERTICULUM)
        scene = generate_stream("surround_scene", 1).frames[0].regions
        net, ev = relationalize(spec, scene)
        beliefs = propagate(apply_evidence(net, ev))
        assert beliefs.probability("diverticulum", "present") > 0.9

    def test_defaults_reach_compiled_cpts(self):
        spec = compile_rule(RULE_DIVERTICULUM, {"hypothesis_prior": 0.25})
        assert spec.node("diverticulum").rows[0] == (0.25, 0.75)


class TestGenerateStream:
    def test_deterministic_bytes(self):
        a = stream_to_jsonl(generate_stream("static_spot", 5, seed=7))
        b = stream_to_jsonl(generate_stream("static_spot", 5, seed=7))
        assert a == b
        c = stream_to_jsonl(generate_stream("static_spot", 5, seed=8))
        assert a != c

    def test_static_spot_stays_within_epsilon(self):
        stream = generate_stream("static_spot", 5, seed=7)
        for prev, cur in zip(stream.frames, stream.frames[1:]):
            (a,), (b,) = prev.regions, cur.regions
            d = math.hypot(a.centroid[0] - b.centroid[0], a.centroid[1] - b.centroid[1])
            assert d <= 2.0
            assert a.colour_class == "yellow"

    def test_moving_spot_translates_beyond_delta(self):
        stream = generate_stream("moving_spot", 4, seed=0)
        for prev, cur in zip(stream.frames, stream.frames[1:]):
            d = cur.regions[0].centroid[0] - prev.regions[0].centroid[0]
            assert d == 15.0

    def test_empty_scenario(self):
        stream = generate_stream("empty", 3, seed=1)
        assert all(f.regions == () for f in stream.frames)
        assert len(stream.frames) == 3

    def test_unknown_scenario_and_bad_count(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            generate_stream("volcano_scene", 3)
        with pytest.raises(ValueError, match="n_frames"):
            generate_stream("empty", 0)

    def test_every_builtin_runs_on_every_scenario(self):
        for scenario in SCENARIOS:
            stream = generate_stream(scenario, 5, seed=11)
            for name in ("diverticulum", "bend"):
                spec = builtin_model(name).model
                net, ev = relationalize(spec, stream.frames[0].regions)
                propagate(apply_evidence(net, ev))
            filter_stream(builtin_model("lumen_tracker").model, stream)
            dynamic_trace(builtin_model("dirty_lens").model, stream)


class TestDiscrimination:
    def test_surround_vs_adjacent_ordering(self):
        div = builtin_model("diverticulum").model
        bend = builtin_model("bend").model

        def posterior(spec, regions):
            net, ev = relationalize(spec, regions)
            return propagate(apply_evidence(net, ev)).probability(spec.root, "present")

        surround = generate_stream("surround_scene", 1).frames[0].regions
        adjacent = generate_stream("adjacent_scene", 1).frames[0].regions
        assert posterior(div, surround) > posterior(bend, surround)
        assert posterior(bend, adjacent) > posterior(div, adjacent)

    def test_static_spot_beats_moving_spot_for_dirty_lens(self):
        model = builtin_model("dirty_lens").model

        def posterior(scenario):
            frames = generate_stream(scenario, 5, seed=7).frames
            net, ev = build_dynamic_window(model, frames)
            return propagate(apply_evidence(net, ev)).probability("dirty_lens", "present")

        assert posterior("static_spot") > posterior("moving_spot")
