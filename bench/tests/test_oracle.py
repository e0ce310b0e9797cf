"""The closed-form oracle agrees with joint enumeration on small instances of
each workload's tree shape."""

import json

import numpy as np
import pytest

import oracle
import workloads
from beliefscope.endoscopy import builtin_model
from beliefscope.network import (
    EvidenceSet,
    apply_evidence,
    network_spec_from_document,
    validate_network,
)
from beliefscope.propagation import brute_force_beliefs
from beliefscope.temporal import dynamic_to_document, window_spec


def _enumerate(spec, assignments):
    return brute_force_beliefs(apply_evidence(validate_network(spec), EvidenceSet(assignments)))


def test_semi_static_rollover_matches_enumeration_frame_by_frame():
    w = workloads.generate("semi_static_masks", 2, frames=40)
    model = w.truth["model"]
    spec = network_spec_from_document(model["per_frame"])
    trans = np.array(model["transition"], dtype=float)
    trans /= trans.sum(axis=1, keepdims=True)
    static = np.array(spec.node(spec.root).rows[0])
    static /= static.sum()
    expected = oracle.semi_static_trace(model, w.truth["frames"])
    prev = None
    for frame, want in zip(w.truth["frames"], expected):
        eff = static if prev is None else static * (prev @ trans)
        eff = eff / eff.sum()
        got = _enumerate(spec.with_root_prior(eff), oracle.semi_static_observed(frame))
        prev = got.distribution(spec.root)
        assert np.allclose(eff, want["effective_prior"], rtol=0, atol=1e-12)
        assert np.allclose(prev, want["posterior"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_window_posterior_matches_enumeration(seed):
    w = workloads.generate("dynamic_window", seed, frames=60)
    doc = dynamic_to_document(builtin_model("dirty_lens").model)
    spec = window_spec(builtin_model("dirty_lens").model, 5)
    expected = oracle.dynamic_trace(doc, w.truth["frames"], 5)
    assert len(expected) == 56
    for end, want in zip(range(4, 60), expected):
        window = w.truth["frames"][end - 4: end + 1]
        window = [dict(window[0], static=None)] + window[1:]
        got = _enumerate(spec, oracle.window_evidence(doc, window))
        assert np.allclose(got.distribution("dirty_lens"), want["posterior"], rtol=0, atol=1e-12)


def test_wide_tree_matches_enumeration():
    w = workloads.generate("wide_infer", 4, hubs=3, leaves=4, observed=0.5)
    spec = network_spec_from_document(w.truth["spec"])
    got = _enumerate(spec, w.truth["evidence"])
    want = oracle.wide_tree_beliefs(w.truth["spec"], w.truth["evidence"])
    assert set(want) == {n.id for n in spec.nodes}
    for nid, vec in want.items():
        assert np.allclose(got.distribution(nid), vec, rtol=0, atol=1e-12), nid


def test_checks_reject_a_wrong_output():
    w = workloads.generate("wide_infer", 4, leaves=5)
    beliefs = oracle.wide_tree_beliefs(w.truth["spec"], w.truth["evidence"])
    states = {n["id"]: n["states"] for n in w.truth["spec"]["nodes"]}
    doc = {"beliefs": {nid: dict(zip(states[nid], vec)) for nid, vec in beliefs.items()}}
    assert oracle.check_wide_infer(json.dumps(doc), w.truth) is None
    doc["beliefs"]["scene"]["calm"] += 1e-6
    assert oracle.check_wide_infer(json.dumps(doc), w.truth) is not None
