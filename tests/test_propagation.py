import json
import math
import random
import tracemalloc

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
from beliefscope import propagation
from beliefscope.network import _sum, normalised_rows
from beliefscope.propagation import (
    ENUMERATION_CAP,
    Beliefs,
    brute_force_beliefs,
    downward,
    enumerate_beliefs,
    map_assignment,
    observation_codes,
    propagate,
    upward,
)
from beliefscope.temporal import posterior

from helpers import (
    exact_beliefs,
    first_vanished,
    hex_rows,
    loop_enumerate,
    normalized,
    per_evidence_enumeration,
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
        spec = parse_network_spec(json.dumps(doc))
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
            downward(net, row)
        assert upward(net, codes) == first
        assert all(net.memo["rows"][row] is kept[row] for row in kept)  # reused, not recomputed
        monkeypatch.setattr(propagation, "ROW_MEMO", 2 * len(net.nodes))  # two rows' λs
        fresh = validate_network(random_tree_spec(random.Random(3), 6))
        assert upward(fresh, codes) == first
        assert len(fresh.memo["rows"]) <= 2

    @pytest.mark.parametrize("seed", range(5))
    def test_row_priors_equal_the_tree_with_that_prior(self, seed):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 10), max_states=4, p_zero=0.0)
        net = validate_network(spec)
        observed = [random_evidence(rng, spec).assignments for _ in range(3)]
        priors = [normalized(rng, len(net.node(net.root).states)) for _ in observed]
        codes = observation_codes(net, observed)
        slow = enumerate_beliefs(net, codes, np.array(priors)) if len(net.nodes) <= 8 else None
        for row, (assignments, prior) in enumerate(zip(observed, priors)):
            fast = downward(net, codes[row], prior)
            tree = instantiate(spec.with_root_prior(prior), assignments)
            assert propagate(tree).marginals == fast
            if slow is not None:
                for nid, vec in brute_force_beliefs(tree).marginals.items():
                    assert np.abs(slow[nid][row] - vec).max() < 1e-12, nid


class TestSumAsNumpy:
    """The kernel's one summation follows numpy's order, so its rows renormalise and its
    messages contract as numpy's array code did."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40))
    def test_sum_is_numpys_row_sum(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array([values, values[::-1]]).sum(axis=-1)[0]
        got = _sum(values)
        if np.isnan(want):  # infinities of both signs
            assert got != got
        else:
            assert got == want and np.copysign(1.0, got) == np.copysign(1.0, want)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_length_up_to_40(self, n):
        rng = np.random.default_rng(n)
        rows = rng.random((200, n)) * 10.0 ** rng.integers(-3, 4, (200, n))
        assert [_sum(row) for row in rows.tolist()] == rows.sum(axis=-1).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), min_size=1, max_size=4)
           .filter(lambda rows: all(sum(row) > 0 for row in rows)))
    def test_rows_renormalise_as_numpys(self, rows):
        for row in rows:
            want = np.array(row) / np.array(row).sum(axis=-1, keepdims=True)
            assert hex_rows(normalised_rows([row])) == hex_rows([want.tolist()])


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
        """downward agrees with exact rational arithmetic, and with enumerate_beliefs where
        the joint state space allows it, to 1e-12; both name impossible evidence alike."""
        rng = random.Random(seed)
        spec = wide_tree_spec(rng, p_zero)
        net = validate_network(spec)
        assignments = random_evidence(rng, spec).assignments
        row = observation_codes(net, [assignments])[0]
        exact = exact_beliefs(net, assignments)
        small = math.prod([len(n.states) for n in net.nodes]) <= 1 << 14
        try:
            fast = downward(net, row)
        except ImpossibleEvidenceError:
            assert exact is None
            if small:
                with pytest.raises(ImpossibleEvidenceError):
                    enumerate_beliefs(net, [row])
            return
        assert exact is not None and list(fast) == list(exact)
        slow = enumerate_beliefs(net, [row]) if small else {}
        for nid, vec in fast.items():
            assert np.abs(np.subtract(vec, [float(p) for p in exact[nid]])).max() < 1e-12, nid
            if slow:
                assert np.abs(np.subtract(vec, slow[nid][0])).max() < 1e-12, nid


class TestBatchedKernels:
    """enumerate_beliefs over many rows against each row alone and the per-evidence
    enumeration, and downward on each row against the tree's own propagation."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)),
           row_priors=st.booleans())
    def test_rows_equal_their_batch_of_one(self, seed, p_zero, row_priors):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 7), max_states=4, p_zero=p_zero)
        net = validate_network(spec)
        observed = [random_evidence(rng, spec).assignments for _ in range(rng.randint(1, 50))]
        codes = observation_codes(net, observed)
        k = len(net.node(net.root).states)
        priors = (np.array([normalized(rng, k, p_zero) for _ in observed]) if row_priors
                  else None)

        def run(rows):
            try:
                return enumerate_beliefs(net, [codes[row] for row in rows],
                                         None if priors is None else priors[rows])
            except ImpossibleEvidenceError as exc:
                return exc

        alone = [run([row]) for row in range(len(observed))]
        possible = [row for row, out in enumerate(alone) if isinstance(out, dict)]
        batch = run(possible)
        for i, row in enumerate(possible):
            for nid, vec in alone[row].items():
                assert np.array_equal(batch[nid][i], vec[0]), nid
            if priors is None:
                want = per_evidence_enumeration(net, observed[row])
                assert list(want) == list(batch)
                for nid, vec in want.items():
                    assert np.array_equal(batch[nid][i], vec), nid
        if len(possible) < len(observed):
            # the whole batch raises what its first impossible row raises alone
            first = min(set(range(len(observed))) - set(possible))
            raised = run(range(len(observed)))
            assert isinstance(raised, ImpossibleEvidenceError)
            assert (str(raised), raised.node) == (str(alone[first]), alone[first].node)
            assert per_evidence_enumeration(net, observed[first]) is None or priors is not None
        for row, assignments in enumerate(observed):
            prior = None if priors is None else priors[row].tolist()
            try:
                fast = downward(net, codes[row], prior)
            except ImpossibleEvidenceError as exc:
                # support vanished below the root, or the prior rules out λ
                node = first_vanished(spec, assignments)
                assert exc.node == (node if node is not None else net.root)
                if priors is None:
                    with pytest.raises(ImpossibleEvidenceError) as again:
                        propagate(apply_evidence(net, EvidenceSet(assignments)))
                    assert (str(again.value), again.value.node) == (str(exc), exc.node)
                continue
            if priors is None:
                assert propagate(apply_evidence(net, EvidenceSet(assignments))).marginals == fast

    def test_the_impossible_rows_name_their_node(self):
        spec = NetworkSpec("O", (
            NodeSpec("O", "chance", ("t", "f"), (), ((0.5, 0.5),)),
            NodeSpec("F", "chance", ("t", "f"), ("O",), ((0.0, 1.0), (1.0, 0.0))),
            NodeSpec("G", "chance", ("t", "f"), ("O",), ((0.0, 1.0), (0.0, 1.0))),
        ))
        net = validate_network(spec)
        # row 1: the prior rules out the only state F=t leaves; row 2: G=t has no support
        codes = observation_codes(net, [{}, {"F": "t"}, {"G": "t"}])
        priors = [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]
        assert downward(net, codes[0], priors[0])["O"] == (0.5, 0.5)
        for row, node in ((1, "O"), (2, "G")):
            with pytest.raises(ImpossibleEvidenceError) as exc:
                downward(net, codes[row], priors[row])
            assert exc.value.node == node

    def test_enumeration_near_the_cap_stays_in_bounded_memory(self):
        nodes = [NodeSpec("c0", "chance", ("t", "f"), (), ((0.5, 0.5),))]
        for i in range(1, 20):
            nodes.append(NodeSpec(f"c{i}", "chance", ("t", "f"), (f"c{i - 1}",),
                                  ((0.7, 0.3), (0.4, 0.6))))
        net = validate_network(NetworkSpec("c0", tuple(nodes)))
        assert ENUMERATION_CAP == 1 << len(nodes)
        table = 8 << len(nodes)  # bytes in one joint table of float64 entries
        codes = observation_codes(net, [{f"c{i}": "t"} for i in range(8)])
        tracemalloc.start()
        try:
            marginals = enumerate_beliefs(net, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * table  # the joint table and one row's copy; 8 rows would hold 9
        assert [tuple(marginals["c0"][i].tolist()) for i in (0, 1)] == [
            brute_force_beliefs(apply_evidence(net, EvidenceSet({f"c{i}": "t"})))
            .distribution("c0") for i in (0, 1)]
