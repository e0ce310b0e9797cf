"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from beliefscope import cli
from beliefscope.endoscopy import SCENARIOS, builtin_model, compile_rule, generate_stream
from beliefscope.network import apply_evidence, validate_network
from beliefscope.propagation import brute_force_beliefs, propagate
from beliefscope.relational import relationalize
from beliefscope.temporal import (
    FrameStream,
    TemporalModel,
    build_dynamic_window,
    dynamic_trace,
    filter_stream,
)

from helpers import (
    chain_model,
    eq3_step,
    frame_likelihood,
    pattern_frames,
    random_evidence,
    random_region,
    random_tree_spec,
    structure_key,
    unrolled_chain_spec,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def assert_wellformed(beliefs, observed=()):
    for nid, vec in beliefs.marginals.items():
        assert abs(sum(vec) - 1.0) < 1e-9
    for nid, label in dict(observed).items():
        vec = beliefs.distribution(nid)
        assert vec[beliefs.states[nid].index(label)] == 1.0


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence, 200 random trees"):
        rng = random.Random(2024)
        started = time.perf_counter()
        for _ in range(200):
            spec = random_tree_spec(rng, rng.randint(3, 10), max_states=4)
            ev = random_evidence(rng, spec)
            inet = apply_evidence(validate_network(spec), ev)
            fast = propagate(inet)
            slow = brute_force_beliefs(inet)
            for nid in fast.marginals:
                assert np.abs(np.subtract(fast.distribution(nid), slow.distribution(nid))).max() < 1e-9
            assert_wellformed(fast, inet.observed)
            assert_wellformed(slow, inet.observed)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_relational_transform_correctness():
    with criterion(2, "instantiation transform equals conditioning"):
        rng = random.Random(55)
        for _ in range(50):
            regions = tuple(random_region(rng, f"r{i}") for i in range(rng.randint(0, 5)))
            for name in ("diverticulum", "bend"):
                spec = builtin_model(name).model
                net, ev = relationalize(spec, regions)
                inet = apply_evidence(net, ev)
                fast = propagate(inet)
                slow = brute_force_beliefs(inet)
                diff = np.abs(np.subtract(fast.distribution(spec.root), slow.distribution(spec.root))).max()
                assert diff < 1e-12
                assert_wellformed(fast, inet.observed)


def test_criterion_3_rollover_formula_fidelity():
    with criterion(3, "paper-mode rollover matches the direct formula"):
        rng = random.Random(303)
        for _ in range(20):
            spec, transition, colours = chain_model(rng, n_features=rng.randint(1, 2))
            model = TemporalModel(spec, np.asarray(transition), mode="paper")
            frames, pattern = pattern_frames(rng, colours, 10)
            trace = filter_stream(model, FrameStream(frames, 0.04))
            prior = list(spec.node("hyp").rows[0])
            prev = None
            for fb, present in zip(trace.frames, pattern):
                like = frame_likelihood(spec, present)
                if prev is None:
                    post = [p * l for p, l in zip(prior, like)]
                    s = sum(post)
                    post = [v / s for v in post]
                else:
                    _, post = eq3_step(prior, transition, prev, like, "paper")
                assert np.abs(fb.posterior - np.asarray(post)).max() < 1e-12
                assert_wellformed_vec(fb.posterior)
                prev = post

        # the worked 2-frame example: frozen from the step-by-step formula
        # evaluation (and exact enumeration of the unrolled network), 83/89
        from test_temporal import frames_with_dark, of_model

        trace = filter_stream(of_model(), frames_with_dark(2))
        assert trace.frames[1].posterior[0] == pytest.approx(0.9325842697, abs=1e-6)


def assert_wellformed_vec(vec):
    assert abs(sum(vec) - 1.0) < 1e-9


def test_criterion_4_filtering_exactness():
    with criterion(4, "filter mode equals unrolled enumeration"):
        rng = random.Random(404)
        for _ in range(20):
            spec, transition, colours = chain_model(rng, n_features=rng.randint(1, 2))
            k = rng.randint(2, 6)
            frames, pattern = pattern_frames(rng, colours, k)
            model = TemporalModel(spec, np.asarray(transition), mode="filter")
            trace = filter_stream(model, FrameStream(frames, 0.04))
            unrolled, ev = unrolled_chain_spec(spec, transition, pattern)
            beliefs = brute_force_beliefs(apply_evidence(validate_network(unrolled), ev))
            diff = np.abs(np.subtract(trace.frames[-1].posterior,
                                      beliefs.distribution(f"hyp_t{k - 1}"))).max()
            assert diff < 1e-9


def test_criterion_5_scenario_discrimination():
    with criterion(5, "default CPTs discriminate the shipped scenarios"):
        def posteriors(spec, regions):
            net, ev = relationalize(spec, regions)
            inet = apply_evidence(net, ev)
            fast = propagate(inet).probability(spec.root, "present")
            slow = brute_force_beliefs(inet).probability(spec.root, "present")
            return fast, slow

        div = builtin_model("diverticulum").model
        bend = builtin_model("bend").model
        surround = generate_stream("surround_scene", 1).frames[0].regions
        adjacent = generate_stream("adjacent_scene", 1).frames[0].regions

        for engine in (0, 1):
            assert posteriors(div, surround)[engine] > posteriors(bend, surround)[engine]
            assert posteriors(bend, adjacent)[engine] > posteriors(div, adjacent)[engine]

        lens = builtin_model("dirty_lens").model

        def lens_posteriors(scenario):
            frames = generate_stream(scenario, 5, seed=7).frames
            net, ev = build_dynamic_window(lens, frames)
            inet = apply_evidence(net, ev)
            return (propagate(inet).probability("dirty_lens", "present"),
                    brute_force_beliefs(inet).probability("dirty_lens", "present"))

        static, moving = lens_posteriors("static_spot"), lens_posteriors("moving_spot")
        assert static[0] > moving[0]
        assert static[1] > moving[1]


def test_criterion_6_determinism(capsys, tmp_path):
    with criterion(6, "generate and track are byte-deterministic"):
        gen_args = ["generate", "--scenario", "static_spot", "--seed", "7", "--frames", "6"]
        assert cli.main(gen_args) == 0
        first = capsys.readouterr().out
        assert cli.main(gen_args) == 0
        second = capsys.readouterr().out
        assert first == second and first

        stream_path = tmp_path / "stream.jsonl"
        stream_path.write_text(first)
        track_args = ["track", "--model", "dirty_lens", "--stream", str(stream_path)]
        assert cli.main(track_args) == 0
        t1 = capsys.readouterr().out
        assert cli.main(track_args) == 0
        t2 = capsys.readouterr().out
        assert t1 == t2 and t1


def test_criterion_7_normalisation_and_clamping():
    with criterion(7, "distributions normalised, observations clamped"):
        rng = random.Random(707)
        for _ in range(30):
            spec = random_tree_spec(rng, rng.randint(2, 8))
            ev = random_evidence(rng, spec)
            inet = apply_evidence(validate_network(spec), ev)
            assert_wellformed(propagate(inet), inet.observed)
            assert_wellformed(brute_force_beliefs(inet), inet.observed)
        for scenario in SCENARIOS:
            stream = generate_stream(scenario, 5, seed=1)
            for name in ("diverticulum", "bend"):
                spec = builtin_model(name).model
                net, ev = relationalize(spec, stream.frames[0].regions)
                inet = apply_evidence(net, ev)
                assert_wellformed(propagate(inet), inet.observed)
            for fb in filter_stream(builtin_model("lumen_tracker").model, stream).frames:
                assert_wellformed_vec(fb.posterior)
                assert_wellformed_vec(fb.effective_prior)
            for fb in dynamic_trace(builtin_model("dirty_lens").model, stream).frames:
                assert_wellformed_vec(fb.posterior)


def test_criterion_8_rule_compiler(capsys):
    with criterion(8, "rule compiler matches builtins; malformed rules exit 2"):
        pairs = [
            ("IF bright region surrounding a dark region THEN diverticulum", "diverticulum"),
            ("IF dark region adjacent to a bright arc THEN bend in the colon", "bend"),
            ("IF yellow or green or brown spots & static in image THEN lens is dirty",
             "dirty_lens"),
        ]
        for text, name in pairs:
            assert structure_key(compile_rule(text)) == structure_key(builtin_model(name).model)

        assert cli.main(["compile", "--rule", "IF dark region NEXTTO bright region THEN bend"]) == 2
        err = capsys.readouterr().err
        assert "unknown relation NEXTTO" in err and "position 15" in err

        assert cli.main(["compile", "--rule", "IF glowing region THEN thing"]) == 2
        err = capsys.readouterr().err
        assert "unknown colour class 'glowing'" in err and "position" in err
