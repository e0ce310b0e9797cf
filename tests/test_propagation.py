import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefscope.errors import ImpossibleEvidenceError, StateSpaceCapError
from beliefscope.network import (
    EvidenceSet,
    NetworkSpec,
    NodeSpec,
    apply_evidence,
    parse_network_spec,
    validate_network,
)
from beliefscope.propagation import (
    Beliefs,
    brute_force_beliefs,
    map_assignment,
    observation_codes,
    posterior,
    propagate,
    upward,
)

from helpers import (
    first_vanished,
    loop_enumerate,
    random_evidence,
    random_tree_spec,
    star_posterior,
)
from test_network import TWO_NODE


def instantiate(spec, assignments):
    return apply_evidence(validate_network(spec), EvidenceSet(assignments))


def two_node(assignments):
    return instantiate(parse_network_spec(TWO_NODE), assignments)


class TestPropagate:
    def test_posterior_given_positive_feature(self):
        beliefs = propagate(two_node({"F": "t"}))
        # hand Bayes: 0.45 / (0.45 + 0.10)
        assert beliefs.probability("O", "t") == pytest.approx(9 / 11, abs=1e-12)
        assert beliefs.distribution("F").tolist() == [1.0, 0.0]

    def test_no_evidence_marginals(self):
        beliefs = propagate(two_node({}))
        assert beliefs.probability("O", "t") == pytest.approx(0.5, abs=1e-12)
        # marginalisation: 0.9 * 0.5 + 0.2 * 0.5
        assert beliefs.probability("F", "t") == pytest.approx(0.55, abs=1e-12)

    def test_fully_observed_network(self):
        rng = random.Random(5)
        spec = random_tree_spec(rng, 6)
        assignments = {n.id: rng.choice(n.states) for n in spec.nodes}
        beliefs = propagate(instantiate(spec, assignments))
        for nid, label in assignments.items():
            vec = beliefs.distribution(nid)
            assert vec[beliefs.states[nid].index(label)] == 1.0
            assert vec.sum() == 1.0

    def test_impossible_evidence_names_the_node(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.0, 1.0], [0.0, 1.0]]  # F=t has no support
        spec = parse_network_spec(json.dumps(doc))
        with pytest.raises(ImpossibleEvidenceError) as err:
            propagate(instantiate(spec, {"F": "t"}))
        assert err.value.node == "F"

    def test_beliefs_document_precision(self):
        doc = propagate(two_node({"F": "t"})).to_document()
        assert doc["beliefs"]["O"]["t"] == 0.8181818182


class TestBruteForce:
    def test_matches_hand_bayes(self):
        beliefs = brute_force_beliefs(two_node({"F": "t"}))
        assert beliefs.probability("O", "t") == pytest.approx(9 / 11, abs=1e-12)

    def test_single_node_prior(self):
        spec = NetworkSpec("A", (NodeSpec("A", "chance", ("x", "y", "z"), (),
                                          ((0.2, 0.3, 0.5),)),))
        beliefs = brute_force_beliefs(instantiate(spec, {}))
        assert beliefs.distribution("A").tolist() == pytest.approx([0.2, 0.3, 0.5])

    def test_cap_exceeded_on_21_node_chain(self):
        nodes = [NodeSpec("c0", "chance", ("t", "f"), (), ((0.5, 0.5),))]
        for i in range(1, 21):
            nodes.append(NodeSpec(f"c{i}", "chance", ("t", "f"), (f"c{i-1}",),
                                  ((0.5, 0.5), (0.5, 0.5))))
        inet = instantiate(NetworkSpec("c0", tuple(nodes)), {})
        with pytest.raises(StateSpaceCapError, match="2097152 exceeds cap 1048576"):
            brute_force_beliefs(inet, cap=1 << 20)
        brute_force_beliefs(inet, cap=1 << 21)  # raising the knob admits it

    def test_impossible_evidence(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.0, 1.0], [0.0, 1.0]]
        spec = parse_network_spec(json.dumps(doc))
        with pytest.raises(ImpossibleEvidenceError):
            brute_force_beliefs(instantiate(spec, {"F": "t"}))

    def test_agrees_with_loop_enumeration(self):
        rng = random.Random(23)
        for _ in range(20):
            spec = random_tree_spec(rng, rng.randint(2, 6), max_states=3)
            ev = random_evidence(rng, spec)
            got = brute_force_beliefs(instantiate(spec, ev.assignments))
            want = loop_enumerate(spec, ev)
            for nid, vec in want.items():
                assert np.abs(got.distribution(nid) - np.asarray(vec)).max() < 1e-9


def star_spec(prior, rows):
    """A hub with one binary (present/absent) child per CPT in ``rows``."""
    states = tuple(f"h{i}" for i in range(len(prior)))
    nodes = [NodeSpec("hub", "chance", states, (), (tuple(prior),))]
    for i, cpt in enumerate(rows):
        nodes.append(NodeSpec(f"c{i}", "chance", ("present", "absent"), ("hub",), cpt))
    return NetworkSpec("hub", tuple(nodes))


class TestWideFanIn:
    """Stars far wider than enumeration allows, against the closed-form oracle."""

    THREE_STATE = ((0.6, 0.4), (0.5, 0.5), (0.55, 0.45))
    BINARY = ((0.6, 0.4), (0.5, 0.5))

    @pytest.mark.parametrize("prior, cpt, k, exact", [
        pytest.param((0.2, 0.3, 0.5), THREE_STATE, 1000, [8.2015461477e-98, 1.0, 2.9131187529e-46],
                     id="three-state-1000"),
        pytest.param((0.2, 0.3, 0.5), THREE_STATE, 3000, [1.2412798824e-291, 1.0, 8.8997348438e-138],
                     id="three-state-3000"),
        pytest.param((0.3, 0.7), BINARY, 1100, [1.0740114363e-107, 1.0], id="binary-1100"),
    ])
    def test_all_children_absent(self, prior, cpt, k, exact):
        rows = [cpt] * k
        beliefs = propagate(instantiate(star_spec(prior, rows),
                                        {f"c{i}": "absent" for i in range(k)}))
        hub = beliefs.distribution("hub")
        want = np.array(star_posterior(prior, rows, [1] * k))
        assert np.abs(np.log(hub) - want).max() < 1e-8
        assert hub.tolist() == pytest.approx(exact, rel=1e-8)


class TestMapAssignment:
    def test_argmax(self):
        b = Beliefs({"O": np.array([0.82, 0.18])}, {"O": ("t", "f")})
        assert map_assignment(b) == {"O": "t"}

    def test_tie_breaks_to_first_declared_state(self):
        b = Beliefs({"O": np.array([0.5, 0.5])}, {"O": ("t", "f")})
        assert map_assignment(b) == {"O": "t"}

    def test_two_node_example(self):
        assert map_assignment(propagate(two_node({"F": "t"}))) == {"O": "t", "F": "t"}


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)))
    def test_oracle_equivalence(self, seed, p_zero):
        # p_zero > 0 puts structural zeros (-inf log-messages) into the
        # sibling exclusion; both routes must then also agree on impossibility
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(2, 10), max_states=4, p_zero=p_zero)
        inet = instantiate(spec, random_evidence(rng, spec).assignments)
        outcomes = []
        for route in (propagate, brute_force_beliefs):
            try:
                outcomes.append(route(inet))
            except ImpossibleEvidenceError:
                outcomes.append(None)
        fast, slow = outcomes
        assert (fast is None) == (slow is None)
        if fast is None:
            return
        for nid in fast.marginals:
            assert np.abs(fast.distribution(nid) - slow.distribution(nid)).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_normalisation_and_clamping(self, seed):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(2, 8))
        ev = random_evidence(rng, spec)
        beliefs = propagate(instantiate(spec, ev.assignments))
        for nid, vec in beliefs.marginals.items():
            assert abs(vec.sum() - 1.0) < 1e-9
            if nid in ev.assignments:
                assert vec[beliefs.states[nid].index(ev.assignments[nid])] == 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_order_invariance(self, seed):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(3, 8))
        ev = random_evidence(rng, spec)
        base = propagate(instantiate(spec, ev.assignments))
        shuffled = list(spec.nodes)
        rng.shuffle(shuffled)
        other = propagate(instantiate(NetworkSpec(spec.root, tuple(shuffled)), ev.assignments))
        for nid in base.marginals:
            assert np.abs(base.distribution(nid) - other.distribution(nid)).max() < 1e-12

    def test_monotone_support(self):
        # a deterministic-ish CPT puts genuine zeros in the posterior
        spec = NetworkSpec("H", (
            NodeSpec("H", "chance", ("a", "b", "c"), (), ((0.5, 0.5, 0.0),)),
            NodeSpec("F", "chance", ("x", "y"), ("H",), ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))),
            NodeSpec("G", "chance", ("x", "y"), ("H",), ((0.7, 0.3), (0.4, 0.6), (0.5, 0.5))),
        ))
        before = propagate(instantiate(spec, {"F": "x"}))
        after = propagate(instantiate(spec, {"F": "x", "G": "x"}))
        zeros = before.distribution("H") == 0.0
        assert zeros.any()
        assert (after.distribution("H")[zeros] == 0.0).all()


class TestUpwardKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)))
    def test_rows_equal_their_batch_of_one_and_propagate(self, seed, p_zero):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 10), max_states=4, p_zero=p_zero)
        net = validate_network(spec)
        observed = [random_evidence(rng, spec).assignments for _ in range(rng.randint(1, 50))]
        lam, _, vanished = upward(net, observation_codes(net, observed))
        prior = net.node(net.root).cpt[0]
        first = None
        for row, assignments in enumerate(observed):
            alone, _, alone_vanished = upward(net, observation_codes(net, [assignments]))
            for nid, vec in alone.items():
                assert np.array_equal(lam[nid][row], vec[0], equal_nan=True), nid
            node = first_vanished(spec, assignments)
            assert alone_vanished == (None if node is None else (0, node))
            if node is not None and first is None:
                first = row, node
            try:
                marginal = propagate(apply_evidence(net, EvidenceSet(assignments)))
            except ImpossibleEvidenceError as exc:
                # support vanished below the root, or the root prior rules out its λ
                assert exc.node == (node if node is not None else net.root)
                continue
            assert node is None
            assert np.array_equal(marginal.distribution(net.root),
                                  posterior(prior, lam[net.root][row]))
        assert vanished == first

    def test_vanished_row_names_the_deepest_node_first(self):
        spec = NetworkSpec("A", (
            NodeSpec("A", "chance", ("x", "y"), (), ((0.5, 0.5),)),
            NodeSpec("B", "chance", ("x", "y"), ("A",), ((1.0, 0.0), (0.0, 1.0))),
            NodeSpec("C", "chance", ("x", "y"), ("B",), ((1.0, 0.0), (1.0, 0.0))),
            NodeSpec("D", "chance", ("x", "y"), ("A",), ((0.5, 0.5), (0.5, 0.5))),
        ))
        net = validate_network(spec)
        observed = [{"C": "x"}, {"D": "x", "B": "x"}, {"C": "y", "D": "y"}, {"C": "y"}]
        lam, _, vanished = upward(net, observation_codes(net, observed))
        assert vanished == (2, "C")
        assert np.isnan(lam["A"][2:]).all() and not np.isnan(lam["A"][:2]).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_root_prior_copies_share_the_plan(self, seed):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 10), max_states=4, p_zero=0.0)
        net = validate_network(spec)
        ev = random_evidence(rng, spec)
        propagate(apply_evidence(net, ev))
        weights = [rng.random() + 0.1 for _ in net.node(net.root).states]
        prior = [w / sum(weights) for w in weights]
        copy = net.with_root_prior(prior)
        assert net.memo and copy.memo is net.memo
        shared = propagate(apply_evidence(copy, ev))
        fresh = propagate(instantiate(spec.with_root_prior(prior), ev.assignments))
        for nid, vec in fresh.marginals.items():
            assert np.array_equal(shared.distribution(nid), vec), nid
