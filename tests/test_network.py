import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefscope.errors import EvidenceError, InvalidNetworkError, SpecSyntaxError
from beliefscope.network import (
    EvidenceSet,
    NetworkSpec,
    NodeSpec,
    apply_evidence,
    network_diagnostics,
    parse_evidence,
    parse_network_spec,
    serialize_network_spec,
    validate_network,
)

from helpers import random_tree_spec

TWO_NODE = json.dumps({
    "root": "O",
    "nodes": [
        {"id": "O", "kind": "chance", "states": ["t", "f"], "prior": [0.5, 0.5]},
        {"id": "F", "kind": "chance", "states": ["t", "f"], "parent": "O",
         "cpt": [[0.9, 0.1], [0.2, 0.8]]},
    ],
})


def two_node_spec():
    return parse_network_spec(TWO_NODE)


class TestParse:
    def test_minimal_document(self):
        spec = two_node_spec()
        assert [n.id for n in spec.nodes] == ["O", "F"]
        assert spec.root == "O"
        assert spec.node("F").rows == ((0.9, 0.1), (0.2, 0.8))
        assert spec.node("F").parent == "O"

    def test_undeclared_parent(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["parent"] = "X"
        with pytest.raises(SpecSyntaxError, match="undeclared parent 'X'"):
            parse_network_spec(json.dumps(doc))

    def test_duplicate_node_id(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["id"] = "O"
        doc["nodes"][1]["parent"] = "O"
        with pytest.raises(SpecSyntaxError, match="duplicate node id 'O'"):
            parse_network_spec(json.dumps(doc))

    def test_bad_json_carries_position(self):
        with pytest.raises(SpecSyntaxError, match=r"line 1"):
            parse_network_spec('{"root": "O", nodes}')

    def test_unknown_field_rejected(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["colour"] = "red"
        with pytest.raises(SpecSyntaxError, match="unknown field 'colour'"):
            parse_network_spec(json.dumps(doc))
        doc = json.loads(TWO_NODE)
        doc["extra"] = 1
        with pytest.raises(SpecSyntaxError, match="unknown field 'extra'"):
            parse_network_spec(json.dumps(doc))

    def test_relation_fields_only_on_relation_nodes(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["evaluator"] = "adjacent"
        with pytest.raises(SpecSyntaxError, match="unknown field 'evaluator'"):
            parse_network_spec(json.dumps(doc))

    def test_prior_and_cpt_exclusive(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["prior"] = [0.5, 0.5]
        with pytest.raises(SpecSyntaxError, match="exactly one of 'prior'/'cpt'"):
            parse_network_spec(json.dumps(doc))

    def test_duplicate_json_key(self):
        text = '{"root": "O", "root": "F", "nodes": []}'
        with pytest.raises(SpecSyntaxError, match="duplicate key 'root'"):
            parse_network_spec(text)

    @pytest.mark.parametrize("number, message", [
        pytest.param("NaN", "non-finite number 'NaN'", id="nan"),
        pytest.param("Infinity", "non-finite number 'Infinity'", id="inf"),
        pytest.param("-Infinity", "non-finite number '-Infinity'", id="minus-inf"),
        pytest.param("1e999", "'cpt' row: expected a finite number", id="float-overflow"),
        pytest.param("1" + "0" * 400, "'cpt' row: expected a finite number", id="int-overflows-float"),
    ])
    def test_non_finite_number_rejected(self, number, message):
        text = TWO_NODE.replace("0.9", number, 1)
        assert number in text
        with pytest.raises(SpecSyntaxError, match=message):
            parse_network_spec(text)

    def test_unnormalised_row_is_a_parse_success(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.9, 0.2], [0.2, 0.8]]
        spec = parse_network_spec(json.dumps(doc))  # syntactically fine
        assert any("row sum 1.1" in d for d in network_diagnostics(spec))

    def test_round_trip_is_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            spec = random_tree_spec(rng, rng.randint(1, 8))
            assert parse_network_spec(serialize_network_spec(spec)) == spec

    def test_round_trip_keeps_bind_and_relation_fields(self):
        text = json.dumps({
            "root": "H",
            "nodes": [
                {"id": "H", "kind": "chance", "states": ["present", "absent"], "prior": [0.5, 0.5]},
                {"id": "a", "kind": "chance", "states": ["present", "absent"], "parent": "H",
                 "cpt": [[0.8, 0.2], [0.2, 0.8]]},
                {"id": "b", "kind": "chance", "states": ["present", "absent"], "parent": "H",
                 "cpt": [[0.8, 0.2], [0.2, 0.8]]},
                {"id": "r", "kind": "relation", "states": ["holds", "holds_not"], "parent": "H",
                 "cpt": [[0.8, 0.2], [0.2, 0.8]], "evaluator": "adjacent", "inputs": ["a", "b"],
                 "params": {"tau": 3}},
            ],
            "bind": {"a": {"colour_class": "dark"}, "b": {"colour_class": ["bright", "yellow"]}},
        })
        spec = parse_network_spec(text)
        assert parse_network_spec(serialize_network_spec(spec)) == spec
        assert spec.node("r").params == {"tau": 3.0}


class TestValidate:
    def test_two_node_valid(self):
        net = validate_network(two_node_spec())
        assert net.root == "O"
        assert net.children["O"] == ("F",)

    def test_row_sum_diagnostic(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.9, 0.2], [0.2, 0.8]]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("row sum 1.1 != 1" in d for d in diags)

    def test_two_parents_diagnostic(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"].append({"id": "C", "kind": "chance", "states": ["t", "f"],
                             "prior": [0.5, 0.5]})
        doc["nodes"][1]["parent"] = ["O", "C"]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("has 2 parents; tree required" in d for d in diags)
        assert any("multiple roots" in d for d in diags)  # O and C are both parentless

    def test_cycle_diagnostic(self):
        text = json.dumps({
            "root": "A",
            "nodes": [
                {"id": "A", "kind": "chance", "states": ["t", "f"], "parent": "B",
                 "cpt": [[0.5, 0.5], [0.5, 0.5]]},
                {"id": "B", "kind": "chance", "states": ["t", "f"], "parent": "A",
                 "cpt": [[0.5, 0.5], [0.5, 0.5]]},
            ],
        })
        diags = network_diagnostics(parse_network_spec(text))
        assert any("cycle detected" in d for d in diags)
        assert any("no root" in d for d in diags)

    def test_row_count_mismatch(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.9, 0.1]]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("1 cpt rows, parent 'O' has 2 states" in d for d in diags)

    def test_entry_out_of_range(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["prior"] = [1.5, -0.5]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("outside [0,1]" in d for d in diags)

    def test_state_diagnostics(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["states"] = ["t"]
        doc["nodes"][0]["prior"] = [1.0]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("fewer than 2 states" in d for d in diags)

        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["states"] = ["t", "t"]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("duplicate state label 't'" in d for d in diags)

    def test_duplicate_node_ids_in_a_programmatic_spec(self):
        spec = NetworkSpec("x", (
            NodeSpec("x", "chance", ("t", "f"), (), ((0.5, 0.5),)),
            NodeSpec("x", "chance", ("t", "f"), ("x",), ((0.9, 0.1), (0.2, 0.8))),
        ))
        assert network_diagnostics(spec) == ["duplicate node id 'x'"]
        with pytest.raises(InvalidNetworkError, match="duplicate node id 'x'"):
            validate_network(spec)

    def test_declared_root_mismatch(self):
        doc = json.loads(TWO_NODE)
        doc["root"] = "F"
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert any("declared root 'F'" in d for d in diags)

    def test_all_violations_reported_at_once(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["prior"] = [0.7, 0.7]
        doc["nodes"][1]["cpt"] = [[0.9, 0.1]]
        diags = network_diagnostics(parse_network_spec(json.dumps(doc)))
        assert len(diags) >= 2
        with pytest.raises(InvalidNetworkError) as err:
            validate_network(parse_network_spec(json.dumps(doc)))
        assert err.value.diagnostics == diags

    def test_rows_renormalised_on_load(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["prior"] = [0.3333333333, 0.6666666667]  # off by < 1e-9
        net = validate_network(parse_network_spec(json.dumps(doc)))
        assert net.node("O").cpt[0].sum() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), mutation=st.sampled_from(["drop_row", "unnormalise", "second_parent"]))
    def test_random_mutations_rejected(self, seed, mutation):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(3, 8))
        assert network_diagnostics(spec) == []
        nodes = list(spec.nodes)
        victim_idx = rng.randrange(1, len(nodes))
        victim = nodes[victim_idx]
        if mutation == "drop_row":
            nodes[victim_idx] = NodeSpec(victim.id, victim.kind, victim.states,
                                         victim.parents, victim.rows[:-1])
            expect = "cpt rows"
        elif mutation == "unnormalise":
            rows = list(victim.rows)
            rows[0] = tuple(min(1.0, v * 1.5) for v in rows[0])
            nodes[victim_idx] = NodeSpec(victim.id, victim.kind, victim.states,
                                         victim.parents, tuple(rows))
            expect = "row sum"
        else:
            other = nodes[(victim_idx + 1) % len(nodes)].id
            nodes[victim_idx] = NodeSpec(victim.id, victim.kind, victim.states,
                                         victim.parents + (other,), victim.rows)
            expect = "parents; tree required"
        mutated = type(spec)(spec.root, tuple(nodes), spec.bind)
        diags = network_diagnostics(mutated)
        assert any(expect in d for d in diags)


class TestEvidence:
    def test_clamp(self):
        net = validate_network(two_node_spec())
        inet = apply_evidence(net, EvidenceSet({"F": "t"}))
        assert inet.observed == {"F": "t"}

    def test_empty_evidence(self):
        net = validate_network(two_node_spec())
        inet = apply_evidence(net, EvidenceSet({}))
        assert inet.observed == {}

    def test_unknown_state(self):
        net = validate_network(two_node_spec())
        with pytest.raises(EvidenceError, match=r"state 'maybe' not in \{t,f\}"):
            apply_evidence(net, EvidenceSet({"F": "maybe"}))

    def test_unknown_node(self):
        net = validate_network(two_node_spec())
        with pytest.raises(EvidenceError, match="unknown node 'Z'"):
            apply_evidence(net, EvidenceSet({"Z": "t"}))

    def test_cpts_untouched(self):
        net = validate_network(two_node_spec())
        before = {n.id: n.cpt.copy() for n in net.nodes}
        apply_evidence(net, EvidenceSet({"F": "t"}))
        for n in net.nodes:
            assert np.array_equal(n.cpt, before[n.id])

    def test_evidence_document_round_trip(self):
        ev = parse_evidence('{"assignments": {"F": "t"}}')
        assert ev.assignments == {"F": "t"}
        assert parse_evidence(json.dumps(ev.to_document())) == ev

    def test_evidence_duplicate_key(self):
        with pytest.raises(SpecSyntaxError, match="duplicate key"):
            parse_evidence('{"assignments": {"F": "t", "F": "f"}}')
