import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from beliefscope import network
from beliefscope.endoscopy import generate_stream
from beliefscope.errors import (
    EvidenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    SpecSyntaxError,
)
from beliefscope.models import _Token, builtin_model, window_spec
from beliefscope.network import (
    ROW_SUM_TOL,
    EvidenceSet,
    Network,
    NetworkSpec,
    NodeSpec,
    apply_evidence,
    check_network,
    evidence_from_document,
    load_json,
    network_diagnostics,
    network_spec_from_document,
    network_spec_to_document,
    replace,
    validate_network,
)
from beliefscope.propagation import propagate
from beliefscope.relational import Region, relationalize
from beliefscope.temporal import (
    BeliefTrace,
    Frame,
    FrameBelief,
    FrameStream,
    _ColumnFrame,
    parse_stream,
    stream_to_jsonl,
)

from helpers import (
    counted_diagnostics,
    hex_rows,
    normalized,
    random_tree_spec,
    reference_load_json,
    reference_network_spec,
    reference_validate_network,
)

TWO_NODE = json.dumps({
    "root": "O",
    "nodes": [
        {"id": "O", "kind": "chance", "states": ["t", "f"], "prior": [0.5, 0.5]},
        {"id": "F", "kind": "chance", "states": ["t", "f"], "parent": "O",
         "cpt": [[0.9, 0.1], [0.2, 0.8]]},
    ],
})


def two_node_spec():
    return network_spec_from_document(load_json(TWO_NODE))


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
            network_spec_from_document(load_json(json.dumps(doc)))

    def test_duplicate_node_id(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["id"] = "O"
        doc["nodes"][1]["parent"] = "O"
        with pytest.raises(SpecSyntaxError, match="duplicate node id 'O'"):
            network_spec_from_document(load_json(json.dumps(doc)))

    def test_bad_json_carries_position(self):
        with pytest.raises(SpecSyntaxError, match=r"line 1"):
            network_spec_from_document(load_json('{"root": "O", nodes}'))

    def test_unknown_field_rejected(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["colour"] = "red"
        with pytest.raises(SpecSyntaxError, match="unknown field 'colour'"):
            network_spec_from_document(load_json(json.dumps(doc)))
        doc = json.loads(TWO_NODE)
        doc["extra"] = 1
        with pytest.raises(SpecSyntaxError, match="unknown field 'extra'"):
            network_spec_from_document(load_json(json.dumps(doc)))

    def test_relation_fields_only_on_relation_nodes(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["evaluator"] = "adjacent"
        with pytest.raises(SpecSyntaxError, match="unknown field 'evaluator'"):
            network_spec_from_document(load_json(json.dumps(doc)))

    def test_prior_and_cpt_exclusive(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["prior"] = [0.5, 0.5]
        with pytest.raises(SpecSyntaxError, match="exactly one of 'prior'/'cpt'"):
            network_spec_from_document(load_json(json.dumps(doc)))

    def test_duplicate_json_key(self):
        text = '{"root": "O", "root": "F", "nodes": []}'
        with pytest.raises(SpecSyntaxError, match="duplicate key 'root'"):
            network_spec_from_document(load_json(text))

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
            network_spec_from_document(load_json(text))

    def test_unnormalised_row_is_a_parse_success(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.9, 0.2], [0.2, 0.8]]
        spec = network_spec_from_document(load_json(json.dumps(doc)))  # syntactically fine
        assert any("row sum 1.1" in d for d in network_diagnostics(spec))

    def test_round_trip_is_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            spec = random_tree_spec(rng, rng.randint(1, 8))
            assert network_spec_from_document(load_json(json.dumps(network_spec_to_document(spec)))) == spec

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
        spec = network_spec_from_document(load_json(text))
        assert network_spec_from_document(load_json(json.dumps(network_spec_to_document(spec)))) == spec
        assert spec.node("r").params == {"tau": 3.0}


class TestValidate:
    def test_two_node_valid(self):
        net = validate_network(two_node_spec())
        assert net.root == "O"
        assert net.children["O"] == ("F",)

    def test_row_sum_diagnostic(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.9, 0.2], [0.2, 0.8]]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
        assert any("row sum 1.1 != 1" in d for d in diags)

    def test_two_parents_diagnostic(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"].append({"id": "C", "kind": "chance", "states": ["t", "f"],
                             "prior": [0.5, 0.5]})
        doc["nodes"][1]["parent"] = ["O", "C"]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
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
        diags = network_diagnostics(network_spec_from_document(load_json(text)))
        assert any("cycle detected" in d for d in diags)
        assert any("no root" in d for d in diags)

    def test_row_count_mismatch(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"] = [[0.9, 0.1]]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
        assert any("1 cpt rows, parent 'O' has 2 states" in d for d in diags)

    def test_entry_out_of_range(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["prior"] = [1.5, -0.5]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
        assert any("outside [0,1]" in d for d in diags)

    def test_state_diagnostics(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["states"] = ["t"]
        doc["nodes"][0]["prior"] = [1.0]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
        assert any("fewer than 2 states" in d for d in diags)

        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["states"] = ["t", "t"]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
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
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
        assert any("declared root 'F'" in d for d in diags)

    def test_all_violations_reported_at_once(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["prior"] = [0.7, 0.7]
        doc["nodes"][1]["cpt"] = [[0.9, 0.1]]
        diags = network_diagnostics(network_spec_from_document(load_json(json.dumps(doc))))
        assert len(diags) >= 2
        with pytest.raises(InvalidNetworkError) as err:
            validate_network(network_spec_from_document(load_json(json.dumps(doc))))
        assert err.value.diagnostics == diags

    def test_rows_renormalised_on_load(self):
        doc = json.loads(TWO_NODE)
        doc["nodes"][0]["prior"] = [0.3333333333, 0.6666666667]  # off by < 1e-9
        net = validate_network(network_spec_from_document(load_json(json.dumps(doc))))
        assert sum(net.node("O").cpt[0]) == pytest.approx(1.0, abs=1e-15)

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


class TestValidateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        return counted_diagnostics(monkeypatch)

    def test_a_spec_is_checked_and_built_once(self, calls):
        spec = two_node_spec()
        net = validate_network(spec)
        assert validate_network(spec) is net and len(calls) == 1
        assert validate_network(two_node_spec()) is not net and len(calls) == 2  # a new spec

    def test_an_invalid_spec_raises_on_every_call(self, calls):
        doc = json.loads(TWO_NODE)
        doc["nodes"][1]["cpt"][0] = [0.9, 0.2]
        spec = network_spec_from_document(load_json(json.dumps(doc)))
        for _ in range(2):
            with pytest.raises(InvalidNetworkError, match=r"row sum 1\.1 != 1 \(row 0\)"):
                validate_network(spec)
        assert len(calls) == 2

    def test_a_relationalize_loop_checks_its_spec_once(self, calls):
        spec = builtin_model("diverticulum").model
        nets = {relationalize(spec, frame.regions)[0]
                for frame in generate_stream("surround_scene", 5, seed=3).frames}
        assert len(nets) == 1 and len(calls) == 1


class TestCheckDecidesTheBuild:
    """``validate`` checks a spec with :func:`check_network` alone and builds nothing, so
    skipping the build drops a verdict only if some accepted spec cannot be built."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           edit=st.sampled_from([None, "drop_row", "extra_row", "extra_entry", "nudge_row",
                                 "negative_entry", "one_state", "root_not_first"]))
    def test_every_spec_the_check_accepts_builds_its_network(self, seed, edit):
        rng = random.Random(seed)
        spec = random_tree_spec(rng, rng.randint(1, 8), p_zero=0.3)
        nodes = list(spec.nodes)
        i = rng.randrange(len(nodes))
        n, rows = nodes[i], list(nodes[i].rows)
        if edit == "drop_row":
            rows = rows[:-1]
        elif edit == "extra_row":
            rows.append(rows[0])
        elif edit == "extra_entry":
            rows[0] += (0.0,)
        elif edit == "nudge_row":  # within or past ROW_SUM_TOL
            rows[0] = (rows[0][0] + rng.choice([3e-10, -3e-10, 3e-9]),) + rows[0][1:]
        elif edit == "negative_entry":
            rows[0] = (-0.0 if rng.random() < 0.5 else -1e-12,) + rows[0][1:]
        elif edit == "one_state":
            nodes[i] = replace(n, states=n.states[:1])
        elif edit == "root_not_first" and len(nodes) > 1:
            nodes.append(nodes.pop(0))
        if edit not in ("one_state", "root_not_first"):
            nodes[i] = replace(n, rows=tuple(rows))
        edited = NetworkSpec(spec.root, tuple(nodes))
        if network_diagnostics(edited):
            with pytest.raises(InvalidNetworkError):
                check_network(edited)
            return
        check_network(edited)
        net, reference = validate_network(edited), reference_validate_network(edited)
        for node in reference.nodes:
            assert hex_rows(net.node(node.id).cpt) == hex_rows(node.cpt), node.id
        assert net.children == reference.children


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
        before = {n.id: hex_rows(n.cpt) for n in net.nodes}
        apply_evidence(net, EvidenceSet({"F": "t"}))
        for n in net.nodes:
            assert hex_rows(n.cpt) == before[n.id]

    def test_evidence_document(self):
        ev = evidence_from_document(load_json('{"assignments": {"F": "t"}}'))
        assert ev == EvidenceSet({"F": "t"})

    def test_evidence_duplicate_key(self):
        with pytest.raises(SpecSyntaxError, match="duplicate key"):
            evidence_from_document(load_json('{"assignments": {"F": "t", "F": "f"}}'))


# ---------------------------------------------------------------------------
# column ingest against the per-node reference


def small_wide_document(rng, max_width: int) -> dict:
    """A root with two hubs of three leaves each, every node with 2..max_width states."""
    def states(name):
        return [f"{name}{j}" for j in range(rng.randint(2, max_width))]

    root = states("r")
    nodes = [{"id": "root", "kind": "chance", "states": root, "prior": list(normalized(rng, len(root)))}]
    for h in range(2):
        hub = states("h")
        nodes.append({"id": f"hub{h}", "kind": "chance", "states": hub, "parent": "root",
                      "cpt": [list(normalized(rng, len(hub))) for _ in root]})
        for i in range(3):
            leaf = states("l")
            nodes.append({"id": f"hub{h}_leaf{i}", "kind": "chance", "states": leaf,
                          "parent": f"hub{h}", "cpt": [list(normalized(rng, len(leaf))) for _ in hub]})
    return {"root": "root", "nodes": nodes}


BUILTIN_SPECS = {
    "diverticulum": builtin_model("diverticulum").model,
    "bend": builtin_model("bend").model,
    "lumen_tracker": builtin_model("lumen_tracker").model.per_frame,
    "dirty_lens": window_spec(builtin_model("dirty_lens").model, 3),
}

HOSTILE_VALUES = [True, 10**400, 2**53 + 1, -0.0, 1e308, 1e999, None, [0.5], "0.5", 1, 0]

#: each edit with the choices it draws from
SPEC_EDITS = {
    "none": [None],
    "value": HOSTILE_VALUES,
    "literal": ["1e999", "-1e999", "NaN", "Infinity", "1E400", "-0"],  # written into the text
    "shift": [0.4, 0.75, 1.25, -1.25, 1e9],  # times ROW_SUM_TOL: about the tolerance and its half
    "swap mass": [0.5, 1.0],  # moved between two entries: the sum stays, the range breaks
    "row": ["ragged", "empty", "nested", "extra"],
    "repeated key": ['"kind": ', '"colour_class": ', '"prior": ', '"id": '],
    "unknown key": ["colour", "params", "evaluator"],
    "states": ["extra", "one", "one with its tables", "repeated", "empty", "not a list", 0],
    "parent": ["another", "two", "itself", 5, None, ["x"], {}],
    "id": ["another", "", 5, None],
    "kind": ["relation", "Chance", None],
    "int row": [None],
}


def edited_spec_text(doc: dict, edit: str, choice, rng) -> str:
    """The JSON text of ``doc`` with one edit, at a node, row and entry drawn from ``rng``."""
    doc = copy.deepcopy(doc)
    nodes = doc["nodes"]
    node = rng.choice(nodes)
    rows = node["cpt"] if "cpt" in node else [node["prior"]]
    row = rng.choice(rows)
    j, k = rng.randrange(len(row)), rng.randrange(len(row))
    if edit == "value":
        row[j] = choice
    elif edit == "literal":
        row[j] = 7.25  # a placeholder no generated entry has
    elif edit == "shift":
        row[j] += choice * ROW_SUM_TOL
    elif edit == "swap mass" and j != k:
        row[j], row[k] = row[j] + choice, row[k] - choice
    elif edit == "row":
        {"ragged": row.pop, "empty": lambda: rows.append([]), "extra": lambda: row.append(0.0),
         "nested": lambda: rows.__setitem__(rows.index(row), [row])}[choice]()
    elif edit == "unknown key":
        node[choice] = 1
    elif edit == "states" and choice == "one with its tables":
        del node["states"][1:]
        for r in rows:
            r[:] = [1.0]
    elif edit == "states":
        node["states"] = {"extra": node["states"] + ["extra"], "one": node["states"][:1],
                          "repeated": node["states"][:-1] + node["states"][:1], "empty": [],
                          "not a list": "s"}.get(choice, choice)
    elif edit == "parent":
        other = rng.choice(nodes)["id"]
        named = {"another": other, "two": [other, rng.choice(nodes)["id"]], "itself": node["id"]}
        node["parent"] = named[choice] if isinstance(choice, str) else choice
        node.setdefault("cpt", rows)
        node.pop("prior", None)
    elif edit == "id":
        node["id"] = rng.choice(nodes)["id"] if choice == "another" else choice
    elif edit == "kind":
        node["kind"] = choice
    elif edit == "int row":
        row[:] = [0] * len(row)
        row[j] = 1
    text = json.dumps(doc)
    if edit == "repeated key":  # the first such key, repeated before itself
        text = text.replace(choice, choice + "0, " + choice, 1)
    if edit == "literal":
        text = text.replace("7.25", choice)
    return text


def ingest(text, decode, parse, validate):
    """(spec, network) from a spec text, or the error: ("syntax", message) or
    ("invalid", diagnostics)."""
    try:
        spec = parse(decode(text))
        return spec, validate(spec)
    except SpecSyntaxError as exc:
        return "syntax", str(exc)
    except InvalidNetworkError as exc:
        return "invalid", exc.diagnostics


def marginal_bytes(net, assignments):
    try:
        beliefs = propagate(apply_evidence(net, EvidenceSet(assignments)))
    except ImpossibleEvidenceError as exc:
        return str(exc)
    return {nid: hex_rows([vec]) for nid, vec in beliefs.marginals.items()}


def assert_ingested_like_the_reference(text: str):
    fast = ingest(text, load_json, network_spec_from_document, validate_network)
    slow = ingest(text, reference_load_json, reference_network_spec, reference_validate_network)
    if not isinstance(slow[1], Network):
        assert fast == slow
        return
    (spec, net), (ref_spec, ref_net) = fast, slow
    assert repr(spec) == repr(ref_spec)  # floats stay floats, -0.0 stays -0.0
    for node, ref in zip(net.nodes, ref_net.nodes, strict=True):
        assert hex_rows(node.cpt) == hex_rows(ref.cpt)
        assert type(node.cpt) is tuple and set(map(type, node.cpt)) == {tuple}  # immutable
    leaf = net.nodes[-1]
    for assignments in ({}, {leaf.id: leaf.states[0]}, {leaf.id: leaf.states[-1]}):
        assert marginal_bytes(net, assignments) == marginal_bytes(ref_net, assignments)


class TestSpecIngest:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["wide"] + list(BUILTIN_SPECS)), st.integers(2, 5),
           st.sampled_from(list(SPEC_EDITS)), st.data(), st.randoms(use_true_random=False))
    def test_ingests_like_the_per_node_reference(self, base, max_width, edit, data, rng):
        doc = (small_wide_document(rng, max_width) if base == "wide"
               else network_spec_to_document(BUILTIN_SPECS[base]))
        choice = data.draw(st.sampled_from(SPEC_EDITS[edit]))
        assert_ingested_like_the_reference(edited_spec_text(doc, edit, choice, rng))

    @pytest.mark.parametrize("edit, choice", [(e, c) for e, cs in SPEC_EDITS.items() for c in cs])
    def test_every_edit_of_a_wide_tree(self, edit, choice):
        for seed in range(8):
            rng = random.Random(seed)
            doc = small_wide_document(rng, 2 + seed % 4)
            assert_ingested_like_the_reference(edited_spec_text(doc, edit, choice, rng))

    def test_the_column_passes_take_a_wide_tree_and_doubt_near_the_tolerance(self):
        doc = small_wide_document(random.Random(1), 5)
        assert network._column_nodes(doc["nodes"]) is not None
        doc["nodes"][3]["cpt"][0][0] += 0.75 * ROW_SUM_TOL
        assert network_diagnostics(network_spec_from_document(doc)) == []


def record_examples() -> list:
    """An instance of every record class, and a frame of a parsed stream (``_ColumnFrame``)."""
    spec = builtin_model("diverticulum").model
    net = validate_network(spec)
    region = Region("r", "dark", (1.0, 1.0), 1, (1, 1, 1, 1))
    frame = Frame(0, 0.0, (region,))
    belief = FrameBelief(0, (0.5, 0.5), (0.5, 0.5), {"spot_0": None})
    return [spec.nodes[0], spec, EvidenceSet({"F": "t"}), net.nodes[0], net,
            apply_evidence(net, EvidenceSet({})), propagate(apply_evidence(net, EvidenceSet({}))),
            region, frame, FrameStream((frame,), 0.04), belief, BeliefTrace("h", ("a", "b"), (belief,)),
            builtin_model("lumen_tracker").model, builtin_model("dirty_lens").model,
            builtin_model("bend"), _Token("IF", 0), parsed_frame()]


def parsed_frame():
    return parse_stream(stream_to_jsonl(generate_stream("surround_scene", 1))).frames[0]


#: the records that compare and hash by their fields, as dataclass(eq=True) made them
FIELD_EQ = (NodeSpec, NetworkSpec, EvidenceSet, _Token)


def dataclass_twin(obj):
    """A stdlib frozen dataclass named and filled as ``obj``, with ``Network.memo`` out of its repr."""
    fields = [(name, object, dataclasses.field(repr=(type(obj), name) != (Network, "memo")))
              for name in type(obj)._fields]
    twin = dataclasses.make_dataclass(type(obj).__qualname__, fields, frozen=True)
    return twin(**{name: getattr(obj, name) for name in type(obj)._fields})


def rebuilt(obj):
    """A second instance with the same fields as ``obj``."""
    return parsed_frame() if isinstance(obj, _ColumnFrame) else replace(obj)


RECORDS = [pytest.param(obj, id=type(obj).__qualname__) for obj in record_examples()]


class TestRecords:
    def test_every_record_class_has_an_example(self):
        classes = {type(obj) for obj in record_examples()}
        assert len(classes) == 17 and _ColumnFrame in classes

    @pytest.mark.parametrize("obj", RECORDS)
    def test_fields_cannot_be_assigned_or_deleted(self, obj):
        for name in (*type(obj)._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)

    @pytest.mark.parametrize("obj", RECORDS)
    def test_repr_is_the_dataclass_repr(self, obj):
        assert repr(obj) == repr(dataclass_twin(obj))

    @pytest.mark.parametrize("obj", RECORDS)
    def test_equality_is_by_field_only_where_dataclass_made_it_so(self, obj):
        other = rebuilt(obj)
        assert obj == obj and other is not obj
        if isinstance(obj, FIELD_EQ):
            assert obj == other and not obj != other
            assert obj != dataclass_twin(obj)  # another class, with the same fields
            try:
                hashes = hash(obj), hash(other)
            except TypeError:  # a dict field, as in the dataclass
                with pytest.raises(TypeError):
                    hash(dataclass_twin(obj))
            else:
                assert hashes[0] == hashes[1]
        else:
            assert obj != other and hash(obj) == object.__hash__(obj)

    @pytest.mark.parametrize("obj, name", [(obj, name) for obj in record_examples() for name in
                                           ("params", "bind", "assignments", "memo")
                                           if name in getattr(type(obj), "_fields", ())])
    def test_a_default_factory_gives_each_instance_its_own_dict(self, obj, name):
        cls = type(obj)
        values = {n: getattr(obj, n) for n in cls._fields if n != name}
        first, second = cls(**values), cls(**values)
        assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)

    def test_replace_checks_as_construction_does(self):
        region = Region("r", "dark", (1.0, 1.0), 1, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="^region 'r': area must be >= 1$"):
            Region("r", "dark", (1.0, 1.0), 0, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="^region 'r': area must be >= 1$"):
            replace(region, area=0)
        assert replace(region, area=2).area == 2 and region.area == 1

    def test_arguments_are_bound_as_for_a_call(self):
        node = NodeSpec("h", "chance", ("a",), (), ((1.0,),))
        assert NodeSpec(id="h", kind="chance", states=("a",), parents=(), rows=((1.0,),)) == node
        for args, kwargs in ((("h",), {}), ((*NodeSpec._fields, None), {}), (("h",), {"id": "h"}),
                             ((), {"identifier": "h"})):
            with pytest.raises(TypeError):
                NodeSpec(*args, **kwargs)
