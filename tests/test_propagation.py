import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beliefscope.errors import ImpossibleEvidenceError, StateSpaceCapError
from beliefscope.network import (
    EvidenceSet,
    NetworkSpec,
    NodeSpec,
    apply_evidence,
    load_json,
    network_spec_from_document,
    validate_network,
)
from beliefscope import propagation, temporal, witness
from beliefscope.network import _build_network, normalised_rows
from beliefscope.propagation import (
    ENUMERATION_CAP,
    Beliefs,
    brute_force_beliefs,
    downward,
    map_assignment,
    observation_codes,
    posterior,
    propagate,
    upward,
)

from helpers import (
    exact_beliefs,
    exact_sum,
    first_vanished,
    hex_rows,
    loop_enumerate,
    normalized,
    one_row,
    per_evidence_enumeration,
    random_evidence,
    random_tree_spec,
    reference_downward,
    reference_upward,
    reference_witness,
    star_posterior,
)
from test_network import TWO_NODE


def instantiate(spec, assignments):
    return apply_evidence(validate_network(spec), EvidenceSet(assignments))


def two_node(assignments):
    return instantiate(network_spec_from_document(load_json(TWO_NODE)), assignments)


class TestPropagate:
    def test_posterior_given_positive_feature(self):
        beliefs = propagate(two_node({"F": "t"}))
        # hand Bayes: 0.45 / (0.45 + 0.10)
        assert beliefs.probability("O", "t") == pytest.approx(9 / 11, abs=1e-12)
        assert beliefs.distribution("F") == (1.0, 0.0)

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
            assert sum(vec) == 1.0

    def test_impossible_evidence_names_the_node(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.0, 1.0], [0.0, 1.0]]  # F=t has no support
        spec = network_spec_from_document(doc)
        with pytest.raises(ImpossibleEvidenceError) as err:
            propagate(instantiate(spec, {"F": "t"}))
        assert err.value.node == "F"

    def test_a_message_share_that_underflows_is_log_zero(self):
        # 5e-324 / 2.0 rounds to 0.0, whose log is -inf, as numpy gives it, not an error
        spec = NetworkSpec("O", (
            NodeSpec("O", "chance", ("a", "b", "c"), (), ((0.2, 0.3, 0.5),)),
            NodeSpec("F", "chance", ("x", "y"), ("O",), ((1.0, 0.0), (1.0, 0.0), (5e-324, 1.0))),
        ))
        beliefs = propagate(instantiate(spec, {"F": "x"}))
        assert beliefs.distribution("O") == (0.4, 0.6, 0.0)
        assert beliefs.distribution("F") == (1.0, 0.0)

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
        assert beliefs.distribution("A") == pytest.approx((0.2, 0.3, 0.5))

    def test_cap_exceeded_on_21_node_chain(self):
        nodes = [NodeSpec("c0", "chance", ("t", "f"), (), ((0.5, 0.5),))]
        for i in range(1, 21):
            nodes.append(NodeSpec(f"c{i}", "chance", ("t", "f"), (f"c{i-1}",),
                                  ((0.5, 0.5), (0.5, 0.5))))
        inet = instantiate(NetworkSpec("c0", tuple(nodes)), {})
        with pytest.raises(StateSpaceCapError, match="2097152 exceeds cap 1048576"):
            brute_force_beliefs(inet)

    def test_impossible_evidence(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.0, 1.0], [0.0, 1.0]]
        spec = network_spec_from_document(doc)
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
                assert np.abs(np.subtract(got.distribution(nid), vec)).max() < 1e-9


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
        assert hub == pytest.approx(exact, rel=1e-8)


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
            assert np.abs(np.subtract(fast.distribution(nid), slow.distribution(nid))).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_normalisation_and_clamping(self, seed):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(2, 8))
        ev = random_evidence(rng, spec)
        beliefs = propagate(instantiate(spec, ev.assignments))
        for nid, vec in beliefs.marginals.items():
            assert abs(sum(vec) - 1.0) < 1e-9
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
            assert np.abs(np.subtract(base.distribution(nid), other.distribution(nid))).max() < 1e-12

    def test_monotone_support(self):
        # a deterministic-ish CPT puts genuine zeros in the posterior
        spec = NetworkSpec("H", (
            NodeSpec("H", "chance", ("a", "b", "c"), (), ((0.5, 0.5, 0.0),)),
            NodeSpec("F", "chance", ("x", "y"), ("H",), ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))),
            NodeSpec("G", "chance", ("x", "y"), ("H",), ((0.7, 0.3), (0.4, 0.6), (0.5, 0.5))),
        ))
        before = propagate(instantiate(spec, {"F": "x"}))
        after = propagate(instantiate(spec, {"F": "x", "G": "x"}))
        zeros = np.array(before.distribution("H")) == 0.0
        assert zeros.any()
        assert (np.array(after.distribution("H"))[zeros] == 0.0).all()


class TestUpwardKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)))
    def test_root_lambda_gives_propagates_root_marginal(self, seed, p_zero):
        # track's posterior over the root λ is downward's root marginal, bit for bit
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 10), max_states=4, p_zero=p_zero)
        net = validate_network(spec)
        observed = [random_evidence(rng, spec).assignments for _ in range(rng.randint(1, 50))]
        prior = net.node(net.root).cpt[0]
        for assignments, lam, vanished in zip(observed, *upward(net, observation_codes(net, observed))):
            assert vanished == first_vanished(spec, assignments)
            assert np.isnan(lam).all() if vanished is not None else not np.isnan(lam).any()
            try:
                marginal = propagate(apply_evidence(net, EvidenceSet(assignments)))
            except ImpossibleEvidenceError as exc:
                # support vanished below the root, or the root prior rules out its λ
                assert exc.node == (vanished if vanished is not None else net.root)
                continue
            assert vanished is None
            assert marginal.distribution(net.root) == posterior(prior, lam)

    def test_vanished_row_names_the_deepest_node_first(self):
        spec = NetworkSpec("A", (
            NodeSpec("A", "chance", ("x", "y"), (), ((0.5, 0.5),)),
            NodeSpec("B", "chance", ("x", "y"), ("A",), ((1.0, 0.0), (0.0, 1.0))),
            NodeSpec("C", "chance", ("x", "y"), ("B",), ((1.0, 0.0), (1.0, 0.0))),
            NodeSpec("D", "chance", ("x", "y"), ("A",), ((0.5, 0.5), (0.5, 0.5))),
        ))
        net = validate_network(spec)
        observed = [{"C": "x"}, {"D": "x", "B": "x"}, {"C": "y", "D": "y"}, {"C": "y"}]
        lam, vanished = upward(net, observation_codes(net, observed))
        assert vanished == [None, None, "C", "C"]
        assert np.isnan(lam[2:]).all() and not np.isnan(lam[:2]).any()

    def test_of_two_vanished_siblings_the_last_is_named(self):
        spec = NetworkSpec("A", (
            NodeSpec("A", "chance", ("x", "y"), (), ((0.5, 0.5),)),
            NodeSpec("B", "chance", ("x", "y"), ("A",), ((1.0, 0.0), (1.0, 0.0))),
            NodeSpec("C", "chance", ("x", "y"), ("A",), ((1.0, 0.0), (1.0, 0.0))),
            NodeSpec("D", "chance", ("x", "y"), ("A",), ((0.5, 0.5), (0.5, 0.5))),
        ))
        net = validate_network(spec)
        observed = [{"B": "y", "C": "y"}, {"B": "y", "D": "y"}]
        assert upward(net, observation_codes(net, observed))[1] == ["C", "B"]
        assert [first_vanished(spec, assignments) for assignments in observed] == ["C", "B"]
        with pytest.raises(ImpossibleEvidenceError) as exc:
            propagate(instantiate(spec, observed[0]))
        assert exc.value.node == "C"

    def test_each_distinct_row_is_computed_once_and_the_memo_is_bounded(self, monkeypatch):
        spec = random_tree_spec(random.Random(3), 6)
        net = validate_network(spec)
        codes = observation_codes(net, [{"n1": s} for s in spec.node("n1").states] * 3)
        first = upward(net, codes)
        kept = dict(net.memo["rows"])
        assert list(kept) == list(dict.fromkeys(codes))  # one pass per distinct row
        for row in codes:
            downward(net, [row])
        assert upward(net, codes) == first
        assert all(net.memo["rows"][row] is kept[row] for row in kept)  # reused, not recomputed
        monkeypatch.setattr(propagation, "ROW_MEMO", 2 * len(net.nodes))  # two rows' λs
        fresh = validate_network(random_tree_spec(random.Random(3), 6))
        assert upward(fresh, codes) == first
        assert len(fresh.memo["rows"]) <= 2

    @pytest.mark.parametrize("seed", range(5))
    def test_row_priors_equal_the_tree_with_that_prior(self, seed):
        """downward on the tree with another root prior agrees with its enumeration, and
        that prior times the flat-prior tree's root marginal, normalised, gives its root
        marginal: the step ``check`` takes for a semi-static frame."""
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 10), max_states=4, p_zero=0.0)
        k = len(spec.node(spec.root).states)
        flat = _build_network(spec.with_root_prior([1.0] * k))  # as check builds it
        observed = [random_evidence(rng, spec).assignments for _ in range(3)]
        priors = [normalized(rng, k) for _ in observed]
        codes = observation_codes(flat, observed)
        for row, (assignments, prior) in enumerate(zip(observed, priors)):
            tree = validate_network(spec.with_root_prior(prior))
            inet = apply_evidence(tree, EvidenceSet(assignments))
            fast = one_row(downward, tree, codes[row])
            assert propagate(inet).marginals == fast
            lam = one_row(downward, flat, codes[row])[spec.root]
            assert np.abs(np.subtract(fast[spec.root], posterior(prior, lam))).max() < 1e-12
            if len(tree.nodes) <= 8:
                for nid, vec in brute_force_beliefs(inet).marginals.items():
                    assert np.abs(np.subtract(fast[nid], vec)).max() < 1e-12, nid


class TestSumsRoundOnce:
    """Every probability sum is the exact sum of its entries rounded once, so a row
    renormalises, and a posterior and an effective prior normalise, to the same bits on
    every Python and in every order."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40).filter(any))
    @example([0.1, 0.2, 0.3])  # left to right: 0x1.3333333333334p-1; exact: ...333p-1
    @example([0.1] * 13)  # in 8 accumulators: 0x1.4cccccccccccep+0; exact: ...ccdp+0
    def test_each_normalisation_divides_by_the_exact_sum(self, row):
        want = hex_rows([[v / exact_sum(row) for v in row]])
        ones = (1.0,) * len(row)
        assert hex_rows(normalised_rows([row])) == want
        assert hex_rows([posterior(ones, row)]) == want
        assert hex_rows([temporal._mixed_prior(ones, [row], (1.0,), False)]) == want  # mixed: row
        assert hex_rows([temporal._mixed_prior(row, [ones], (1.0,), True)]) == want  # row times ones

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_length_up_to_40(self, n):
        """200 seeded rows of each length, their entries spread over seven decades; past
        two entries, most of them sum differently left to right or in accumulators."""
        rng = np.random.default_rng(n)
        rows = (rng.random((200, n)) * 10.0 ** rng.integers(-3, 4, (200, n))).tolist()
        want = hex_rows([[v / exact_sum(row) for v in row] for row in rows])
        assert hex_rows(normalised_rows(rows)) == want
        assert hex_rows([posterior((1.0,) * n, row) for row in rows]) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(any),
                    min_size=1, max_size=4))
    def test_each_row_renormalises_by_its_own_exact_sum(self, rows):
        want = hex_rows([[v / exact_sum(row) for v in row] for row in rows])
        assert hex_rows(normalised_rows(rows)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(any), st.randoms())
    def test_a_shuffled_row_renormalises_to_the_shuffled_bits(self, row, rnd):
        """The one rounding makes the sum independent of the order of its entries."""
        order = list(range(len(row)))
        rnd.shuffle(order)
        once = normalised_rows([row])[0]
        assert hex_rows(normalised_rows([[row[i] for i in order]])) == hex_rows([[once[i] for i in order]])


def wide_tree_spec(rng, p_zero):
    """A random tree with up to 10 states a node, one of whose nodes has up to 30 more
    leaf children; ``p_zero`` puts zeros into its priors and CPT rows."""
    base = random_tree_spec(rng, rng.randint(1, 8), max_states=10, p_zero=p_zero)
    hub = rng.choice(base.nodes)
    leaves = []
    for i in range(rng.randint(0, rng.choice((4, 30)))):  # narrow enough to enumerate, or wide
        k = rng.randint(2, 10)
        leaves.append(NodeSpec(f"w{i}", "chance", tuple(f"s{j}" for j in range(k)), (hub.id,),
                               tuple(normalized(rng, k, p_zero) for _ in hub.states)))
    return NetworkSpec(base.root, base.nodes + tuple(leaves))


class TestDownwardAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)))
    def test_wide_trees_with_zeros(self, seed, p_zero):
        """downward agrees with exact rational arithmetic, and with brute_force_beliefs where
        the joint state space allows it, to 1e-12; both name impossible evidence alike."""
        rng = random.Random(seed)
        spec = wide_tree_spec(rng, p_zero)
        net = validate_network(spec)
        assignments = random_evidence(rng, spec).assignments
        row = observation_codes(net, [assignments])[0]
        exact = exact_beliefs(net, assignments)
        small = math.prod([len(n.states) for n in net.nodes]) <= 1 << 14
        inet = apply_evidence(net, EvidenceSet(assignments))
        try:
            fast = one_row(downward, net, row)
        except ImpossibleEvidenceError:
            assert exact is None
            if small:
                with pytest.raises(ImpossibleEvidenceError):
                    brute_force_beliefs(inet)
            return
        assert exact is not None and list(fast) == list(exact)
        slow = brute_force_beliefs(inet).marginals if small else {}
        for nid, vec in fast.items():
            assert np.abs(np.subtract(vec, [float(p) for p in exact[nid]])).max() < 1e-12, nid
            if slow:
                assert np.abs(np.subtract(vec, slow[nid])).max() < 1e-12, nid


class TestBatchedKernels:
    """downward on each of many rows, on the tree or on the tree with a root prior of the
    row's own, against that tree's propagation and where support vanished, and each
    row's joint enumeration against the per-evidence enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)),
           row_priors=st.booleans())
    def test_each_row_against_enumeration_and_propagate(self, seed, p_zero, row_priors):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 7), max_states=4, p_zero=p_zero)
        net = validate_network(spec)
        observed = [random_evidence(rng, spec).assignments for _ in range(rng.randint(1, 50))]
        codes = observation_codes(net, observed)
        k = len(net.node(net.root).states)
        priors = [normalized(rng, k, p_zero) for _ in observed] if row_priors else None
        for row, assignments in enumerate(observed):
            tree = net if priors is None else validate_network(spec.with_root_prior(priors[row]))
            inet = apply_evidence(tree, EvidenceSet(assignments))
            want = per_evidence_enumeration(tree, assignments)
            if want is None:
                with pytest.raises(ImpossibleEvidenceError):
                    brute_force_beliefs(inet)
            else:
                slow = brute_force_beliefs(inet).marginals
                assert list(want) == list(slow)
                for nid, vec in want.items():
                    assert np.abs(vec - slow[nid]).max() < 1e-12, nid
            try:
                fast = one_row(downward, tree, codes[row])
            except ImpossibleEvidenceError as exc:
                # support vanished below the root, or the root prior rules out λ
                node = first_vanished(spec, assignments)
                assert exc.node == (node if node is not None else net.root)
                assert want is None
                with pytest.raises(ImpossibleEvidenceError) as again:
                    propagate(inet)
                assert (str(again.value), again.value.node) == (str(exc), exc.node)
                continue
            assert want is not None
            assert propagate(inet).marginals == fast

    def test_the_impossible_rows_name_their_node(self):
        spec = NetworkSpec("O", (
            NodeSpec("O", "chance", ("t", "f"), (), ((0.5, 0.5),)),
            NodeSpec("F", "chance", ("t", "f"), ("O",), ((0.0, 1.0), (1.0, 0.0))),
            NodeSpec("G", "chance", ("t", "f"), ("O",), ((0.0, 1.0), (0.0, 1.0))),
        ))
        # row 1: the root prior rules out the only state F=t leaves; row 2: G=t has no support
        codes = observation_codes(validate_network(spec), [{}, {"F": "t"}, {"G": "t"}])
        trees = [validate_network(spec.with_root_prior(prior))
                 for prior in ([0.5, 0.5], [1.0, 0.0], [0.5, 0.5])]
        assert downward(trees[0], codes[:1])["O"] == ((0.5, 0.5),)
        for row, node in ((1, "O"), (2, "G")):
            with pytest.raises(ImpossibleEvidenceError) as exc:
                downward(trees[row], [codes[row]])
            assert exc.value.node == node

    def test_enumeration_near_the_cap_stays_in_bounded_memory(self):
        nodes = [NodeSpec("c0", "chance", ("t", "f"), (), ((0.5, 0.5),))]
        for i in range(1, 20):
            nodes.append(NodeSpec(f"c{i}", "chance", ("t", "f"), (f"c{i - 1}",),
                                  ((0.7, 0.3), (0.4, 0.6))))
        inet = apply_evidence(validate_network(NetworkSpec("c0", tuple(nodes))),
                              EvidenceSet({"c19": "t"}))
        assert ENUMERATION_CAP == 1 << len(nodes)
        table = 32 << len(nodes)  # bytes in one joint table: a float object and a list slot each
        tracemalloc.start()
        try:
            slow = brute_force_beliefs(inet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * table  # the table and the half-size one it was built from
        assert slow.distribution("c19") == (1.0, 0.0)
        for nid, vec in propagate(inet).marginals.items():
            assert np.abs(np.subtract(vec, slow.distribution(nid))).max() < 1e-12, nid


def mixed_star_spec(rng, leaves, p_zero):
    """A hub of 2 to 5 states over ``leaves`` leaves of 2 to 5 states each."""
    k = rng.randint(2, 5)
    hub = NodeSpec("hub", "chance", tuple(f"h{j}" for j in range(k)), (), (normalized(rng, k, p_zero),))
    nodes = [hub]
    for i in range(leaves):
        t = rng.randint(2, 5)
        nodes.append(NodeSpec(f"l{i}", "chance", tuple(f"s{j}" for j in range(t)), ("hub",),
                              tuple(normalized(rng, t, p_zero) for _ in range(k))))
    return NetworkSpec("hub", tuple(nodes))


def mixed_chain_spec(rng, length, p_zero):
    """A chain of ``length`` nodes of 2 to 12 states each."""
    nodes = []
    for i in range(length):
        t = rng.randint(2, 12)
        parent = nodes[-1] if nodes else None
        rows = tuple(normalized(rng, t, p_zero) for _ in (parent.states if parent else (0,)))
        nodes.append(NodeSpec(f"c{i}", "chance", tuple(f"s{j}" for j in range(t)),
                              (parent.id,) if parent else (), rows))
    return NetworkSpec("c0", tuple(nodes))


def sampled_rows(rng, net, count, p_observe=0.4, p_wild=0.15):
    """``count`` code rows, repeats among them: most observe about ``p_observe`` of the
    nodes at the states of one joint sample, so they keep support; the others observe
    states drawn at random, so many of them are impossible."""
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    column = {node.id: j for j, node in enumerate(net.nodes)}
    distinct = []
    for _ in range(rng.randint(1, count)):
        state, row, wild = {}, [-1] * len(net.nodes), rng.random() < p_wild
        for nid in order:
            node = net.by_id[nid]
            weights = node.cpt[state[node.parent] if node.parent is not None else 0]
            state[nid] = rng.choices(range(len(node.states)), weights)[0]
            if rng.random() < p_observe:
                row[column[nid]] = rng.randrange(len(node.states)) if wild else state[nid]
        distinct.append(tuple(row))
    return [rng.choice(distinct) for _ in range(count)]


def _hexed(marginals):
    return {nid: [float(p).hex() for p in vec] for nid, vec in marginals.items()}


def _first_error(kernel, net, rows):
    """What the per-row loop over ``rows`` raises first, or None."""
    for row in rows:
        try:
            kernel(net, row)
        except ImpossibleEvidenceError as exc:
            return exc.node, str(exc)
    return None


class TestBatchesAreThePerRowKernels:
    """upward, downward and the witness on a batch of rows give each row, bit for bit, what
    the per-row kernels they replaced gave it (frozen in helpers), and a batch with an
    impossible row raises what the per-row loop raises first."""

    def check(self, net, rows):
        for kernel, reference in ((downward, reference_downward), (witness.marginals, reference_witness)):
            want = {}
            for row in dict.fromkeys(rows):
                try:
                    want[row] = _hexed(reference(net, row))
                except ImpossibleEvidenceError as exc:
                    want[row] = exc.node, str(exc)
            errors = [want[row] for row in rows if isinstance(want[row], tuple)]
            if errors:
                with pytest.raises(ImpossibleEvidenceError) as exc:
                    kernel(net, rows)
                assert (exc.value.node, str(exc.value)) == errors[0], kernel
            fine = [row for row in rows if isinstance(want[row], dict)]
            got = kernel(net, fine) if fine else {}
            for i, row in enumerate(fine):
                assert _hexed({nid: vecs[i] for nid, vecs in got.items()}) == want[row], kernel
        lam, vanished = upward(net, rows)
        for row, vec, at in zip(rows, lam, vanished):
            ref_lam, _, ref_at = reference_upward(net, row)
            assert at == ref_at
            if at is None:
                assert [p.hex() for p in vec] == [p.hex() for p in ref_lam[net.root]]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_random_trees_of_2_to_12_states(self, seed):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 14), max_states=12, p_zero=0.2)
        net = validate_network(spec)
        self.check(net, sampled_rows(rng, net, rng.randint(1, 60)))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), leaves=st.integers(1, 2000))
    @example(seed=0, leaves=2000)
    def test_stars_of_mixed_leaves(self, seed, leaves):
        """Up to 2,000 leaves of 2 to 5 states under one hub, in several batches of at
        most ROW_MEMO node-states when they are wide."""
        rng = random.Random(seed)
        net = validate_network(mixed_star_spec(rng, leaves, 0.2))
        self.check(net, sampled_rows(rng, net, rng.randint(1, 60)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_chains(self, seed):
        rng = random.Random(seed)
        net = validate_network(mixed_chain_spec(rng, rng.randint(2, 60), 0.2))
        self.check(net, sampled_rows(rng, net, rng.randint(1, 60)))

    def test_an_impossible_row_in_a_batch_raises_what_it_raises_alone(self):
        spec = NetworkSpec("O", (
            NodeSpec("O", "chance", ("t", "f"), (), ((1.0, 0.0),)),
            NodeSpec("F", "chance", ("t", "f"), ("O",), ((0.0, 1.0), (1.0, 0.0))),
            NodeSpec("G", "chance", ("t", "f"), ("O",), ((0.0, 1.0), (0.0, 1.0))),
            NodeSpec("H", "chance", ("t", "f"), ("O",), ((0.3, 0.7), (0.6, 0.4))),
        ))
        net = validate_network(spec)
        # F=t keeps support below the root, which its prior then rules out; G=t has none
        fine, f, g = observation_codes(net, [{"H": "t"}, {"F": "t"}, {"G": "t"}])
        for rows, node in (([fine, f, g], "O"), ([fine, g, f], "G"), ([f, f], "O")):
            with pytest.raises(ImpossibleEvidenceError) as exc:
                downward(net, rows)
            assert (exc.value.node, str(exc.value)) == _first_error(reference_downward, net, rows)
            assert exc.value.node == node
        assert list(downward(net, [fine, fine])["O"]) == [reference_downward(net, fine)["O"]] * 2
