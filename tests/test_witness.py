"""The witness ``check`` certifies propagate with: agreement with joint enumeration, with
exact rational arithmetic and with the benchmark's closed forms, independence from the
propagation module and numpy, and a wrong message it must catch past the old cap."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefscope import cli, witness
from beliefscope.errors import ImpossibleEvidenceError
from beliefscope.network import (
    EvidenceSet,
    apply_evidence,
    network_spec_from_document,
    validate_network,
)
from beliefscope.propagation import brute_force_beliefs, downward, observation_codes

from helpers import exact_beliefs, normalized, one_row, random_evidence, random_tree_spec
from test_propagation import wide_tree_spec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def outcome(compute):
    """``compute()``, or ImpossibleEvidenceError where it raises that."""
    try:
        return compute()
    except ImpossibleEvidenceError:
        return ImpossibleEvidenceError


class TestAgainstEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7), st.sampled_from([0.0, 0.3]),
           st.booleans())
    def test_random_trees_with_and_without_row_priors(self, rng, n_nodes, p_zero, row_prior):
        """On the tree, or on the tree with a random root prior of the row's own, the
        witness agrees to 1e-12 with brute_force_beliefs, and the witness, the enumeration
        and downward find the same rows impossible."""
        spec = random_tree_spec(rng, n_nodes, p_zero=p_zero)
        net = validate_network(spec)
        assignments = random_evidence(rng, spec).assignments
        row = observation_codes(net, [assignments])[0]
        prior = normalized(rng, len(net.node(net.root).states), p_zero) if row_prior else None
        tree = validate_network(spec if prior is None else spec.with_root_prior(prior))
        got = outcome(lambda: one_row(witness.marginals, tree, row))
        want = outcome(lambda: brute_force_beliefs(apply_evidence(tree, EvidenceSet(assignments))))
        assert (got is ImpossibleEvidenceError) == (want is ImpossibleEvidenceError)
        assert (got is ImpossibleEvidenceError) == (outcome(lambda: downward(tree, [row]))
                                                    is ImpossibleEvidenceError)
        if got is not ImpossibleEvidenceError:
            assert list(got) == list(downward(tree, [row]))  # breadth-first order
            for nid, vec in got.items():
                assert np.abs(np.subtract(vec, want.distribution(nid))).max() < 1e-12, nid


class TestAgainstExactArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p_zero=st.sampled_from((0.0, 0.3)))
    def test_trees_with_wide_hubs(self, seed, p_zero):
        """Exact rational sum-product agrees to 1e-12 on trees of up to 10 states a node
        and 30 more leaves at a hub, most of them past the enumeration cap."""
        rng = random.Random(seed)
        spec = wide_tree_spec(rng, p_zero)
        net = validate_network(spec)
        assignments = random_evidence(rng, spec).assignments
        row = observation_codes(net, [assignments])[0]
        exact = exact_beliefs(net, assignments)
        got = outcome(lambda: one_row(witness.marginals, net, row))
        if exact is None:
            assert got is ImpossibleEvidenceError
            return
        assert list(got) == list(exact)
        for nid, vec in got.items():
            assert np.abs(np.subtract(vec, [float(p) for p in exact[nid]])).max() < 1e-12, nid


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's workload generator and closed-form oracle, only read."""
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle
    import workloads
    return workloads, oracle


@pytest.fixture
def wide_infer(bench, tmp_path):
    """The seed-5 wide_infer tree and evidence, 1,504 nodes, written to files."""
    workloads, _ = bench
    generated = workloads.generate("wide_infer", 5)
    generated.write(tmp_path)
    return generated.truth, str(tmp_path / "tree.json"), str(tmp_path / "evidence.json")


class TestWideInfer:
    def test_the_closed_forms_agree(self, bench, wide_infer):
        (truth, _, _), (_, oracle) = wide_infer, bench
        net = validate_network(network_spec_from_document(truth["spec"]))
        got = one_row(witness.marginals, net, observation_codes(net, [truth["evidence"]])[0])
        want = oracle.wide_tree_beliefs(truth["spec"], truth["evidence"])
        assert set(got) == set(want)
        for nid, vec in got.items():
            assert np.abs(np.subtract(vec, want[nid])).max() < 1e-12, nid

    def test_check_exits_0_past_the_old_cap(self, capsys, wide_infer):
        """2**1504 joint states: the enumeration oracle refused this tree."""
        _, tree, evidence = wide_infer
        assert cli.main(["check", "--spec", tree, "--scene", evidence]) == 0
        out = capsys.readouterr().out
        residual = float(out.split(" = ")[1].split()[0])
        assert residual < 1e-9 and out.endswith(" over 1 network(s)\n")

    def test_a_dropped_message_at_a_hub_exits_4(self, capsys, monkeypatch, wide_infer):
        """A witness that leaves one observed leaf's message out of its hub's λ gives
        other posteriors than propagate, and check says so."""
        truth, tree, evidence = wide_infer
        leaf = max((n for n in truth["spec"]["nodes"] if n["id"] in truth["evidence"]),
                   key=lambda n: abs(n["cpt"][0][0] - n["cpt"][1][0]))["id"]
        real = witness._tree

        def dropped(net):
            """The witness's plan with the leaf's CPT all ones on the way up, so that its
            message to the hub is all ones."""
            order, parents = real(net)
            changed = []
            for *parent, groups, concat in parents:
                regrouped = []
                for positions, ids, cols, states, up, down in groups:
                    if leaf in ids:
                        up = [(1.0,) * len(block) if child == leaf else block
                              for child, block in zip(ids, up)]
                    regrouped.append((positions, ids, cols, states, up, down))
                changed.append((*parent, regrouped, concat))
            return order, changed

        monkeypatch.setattr(witness, "_tree", dropped)
        assert cli.main(["check", "--spec", tree, "--scene", evidence]) == 4
        assert "oracle mismatch" in capsys.readouterr().err


def test_the_witness_loads_neither_propagation_nor_numpy():
    code = ("import sys, beliefscope.witness; "
            "print(sorted(m for m in sys.modules if m.startswith('beliefscope.') or m == 'numpy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(
        ["beliefscope.errors", "beliefscope.network", "beliefscope.witness"])
