"""Network data model: the JSON document format, parsing, validation and evidence.

Parsing is purely syntactic (shape, types, references); every numerical,
structural and relational invariant lives in :func:`network_diagnostics` so
that a bad document is reported with all of its problems at once.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from .errors import EvidenceError, InvalidNetworkError, SpecSyntaxError

ROW_SUM_TOL = 1e-9

NODE_KINDS = ("chance", "relation")

COLOUR_CLASSES = ("dark", "bright", "yellow", "green", "brown", "other")

PRESENT = "present"
ABSENT = "absent"
FEATURE_STATES = (PRESENT, ABSENT)

HOLDS = "holds"
HOLDS_NOT = "holds_not"
NEAR = "near"
FAR = "far"
BOOLEAN_STATES = (HOLDS, HOLDS_NOT)
DISTANCE_STATES = (NEAR, FAR)

#: evaluator name -> the state labels its outputs range over
RELATION_STATES: dict[str, tuple[str, ...]] = {
    "surrounding": BOOLEAN_STATES,
    "adjacent": BOOLEAN_STATES,
    "distance": DISTANCE_STATES,
    "static": BOOLEAN_STATES,
}

_TOP_KEYS = {"root", "nodes", "bind"}
_CHANCE_KEYS = {"id", "kind", "states", "parent", "prior", "cpt"}
_RELATION_KEYS = _CHANCE_KEYS | {"evaluator", "inputs", "params"}


@dataclass(frozen=True)
class NodeSpec:
    """One node of a parsed network document.

    ``rows`` holds the prior (a single row) for parentless nodes, otherwise one
    distribution per parent state.  ``parents`` normally has 0 or 1 entries;
    more are expressible so validation can report them.
    """

    id: str
    kind: str
    states: tuple[str, ...]
    parents: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    evaluator: str | None = None
    inputs: tuple[str, ...] = ()
    params: Mapping[str, float] = field(default_factory=dict)

    @property
    def parent(self) -> str | None:
        return self.parents[0] if self.parents else None


@dataclass(frozen=True)
class NetworkSpec:
    """Parsed, not yet validated, network document.

    ``bind`` maps feature node ids to region-attribute predicates and is only
    meaningful for relational models (see :mod:`beliefscope.relational`).
    """

    root: str
    nodes: tuple[NodeSpec, ...]
    bind: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def with_root_prior(self, prior) -> "NetworkSpec":
        """Copy of this spec with the root's prior row replaced."""
        nodes = tuple(
            replace(n, rows=(tuple(float(p) for p in prior),)) if n.id == self.root else n
            for n in self.nodes
        )
        return replace(self, nodes=nodes)


@dataclass(frozen=True)
class EvidenceSet:
    """Observed state assignments for a subset of nodes."""

    assignments: Mapping[str, str] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {"assignments": dict(self.assignments)}


@dataclass(frozen=True, eq=False)
class Node:
    """Validated node: CPT as a read-only array of shape (rows, n_states)."""

    id: str
    kind: str
    states: tuple[str, ...]
    parent: str | None
    cpt: np.ndarray
    evaluator: str | None = None
    inputs: tuple[str, ...] = ()
    params: Mapping[str, float] = field(default_factory=dict)

    def state_index(self, label: str) -> int:
        return self.states.index(label)


@dataclass(frozen=True, eq=False)
class Network:
    """Validated tree network; immutable and safe to share."""

    root: str
    nodes: tuple[Node, ...]
    by_id: Mapping[str, Node]
    children: Mapping[str, tuple[str, ...]]
    memo: dict = field(default_factory=dict, repr=False)  # derived data, filled on first use

    def node(self, node_id: str) -> Node:
        return self.by_id[node_id]

    def with_root_prior(self, prior) -> "Network":
        """Copy of this network with the root's prior replaced, renormalised like every row
        :func:`validate_network` loads.  It shares ``memo``, which never holds that row."""
        root = replace(self.by_id[self.root], cpt=normalised_rows([prior]))
        return replace(self, nodes=tuple(root if n.id == self.root else n for n in self.nodes),
                       by_id={**self.by_id, self.root: root})


@dataclass(frozen=True, eq=False)
class InstantiatedNetwork:
    """A network annotated with observed states; CPTs are untouched."""

    net: Network
    observed: Mapping[str, str]


# ---------------------------------------------------------------------------
# parsing


def _checked_object(pairs):
    out = {}
    for k, v in pairs:
        if k in out:
            raise SpecSyntaxError(f"duplicate key '{k}'")
        out[k] = v
    return out


def _reject_constant(name: str):
    raise SpecSyntaxError(f"non-finite number '{name}' is not allowed")


def load_json(text: str):
    """json.loads with duplicate-key detection, no NaN/Infinity literals and
    positioned syntax errors."""
    try:
        return json.loads(text, object_pairs_hook=_checked_object, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None


def _require(cond: bool, message: str):
    if not cond:
        raise SpecSyntaxError(message)


def _check_keys(obj: dict, allowed: set, where: str):
    for key in obj:
        _require(key in allowed, f"{where}: unknown field '{key}'")


def finite_number(value, where: str) -> float:
    """A JSON number as a finite float; a bool, a non-number or an integer too
    large for a float is a SpecSyntaxError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise SpecSyntaxError(f"{where}: expected a finite number")


def strict_int(value, where: str) -> int:
    """A JSON integer; a bool, a float or a non-number is a SpecSyntaxError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecSyntaxError(f"{where} must be an integer")


def _as_row(value, where: str) -> tuple[float, ...]:
    _require(isinstance(value, list), f"{where}: expected a list of numbers")
    return tuple(finite_number(v, where) for v in value)


def _as_str_list(value, where: str) -> tuple[str, ...]:
    _require(isinstance(value, list) and all(isinstance(s, str) for s in value), f"{where}: expected a list of strings")
    return tuple(value)


def _parse_node(obj, declared_kind_check=True) -> NodeSpec:
    _require(isinstance(obj, dict), "node entries must be objects")
    _require(isinstance(obj.get("id"), str) and obj["id"], "node: 'id' must be a non-empty string")
    nid = obj["id"]
    where = f"node '{nid}'"
    kind = obj.get("kind")
    _require(kind in NODE_KINDS, f"{where}: 'kind' must be one of {NODE_KINDS}")
    _check_keys(obj, _RELATION_KEYS if kind == "relation" else _CHANCE_KEYS, where)
    states = _as_str_list(obj.get("states", []), f"{where}: 'states'")
    _require("states" in obj, f"{where}: missing 'states'")

    parents: tuple[str, ...] = ()
    if "parent" in obj:
        p = obj["parent"]
        if isinstance(p, str):
            parents = (p,)
        elif isinstance(p, list) and all(isinstance(x, str) for x in p):
            parents = tuple(p)
        else:
            raise SpecSyntaxError(f"{where}: 'parent' must be a node id or list of node ids")

    _require(("prior" in obj) != ("cpt" in obj), f"{where}: exactly one of 'prior'/'cpt' required")
    if "prior" in obj:
        rows = (_as_row(obj["prior"], f"{where}: 'prior'"),)
    else:
        cpt = obj["cpt"]
        _require(isinstance(cpt, list), f"{where}: 'cpt' must be a list of rows")
        rows = tuple(_as_row(r, f"{where}: 'cpt' row") for r in cpt)

    evaluator = None
    inputs: tuple[str, ...] = ()
    params: dict[str, float] = {}
    if kind == "relation":
        if "evaluator" in obj:
            _require(isinstance(obj["evaluator"], str), f"{where}: 'evaluator' must be a string")
            evaluator = obj["evaluator"]
        if "inputs" in obj:
            inputs = _as_str_list(obj["inputs"], f"{where}: 'inputs'")
        if "params" in obj:
            _require(isinstance(obj["params"], dict), f"{where}: 'params' must be an object")
            params = {k: finite_number(v, f"{where}: param '{k}'") for k, v in obj["params"].items()}

    return NodeSpec(nid, kind, states, parents, rows, evaluator, inputs, params)


def _parse_bind(obj, ids: set[str]) -> dict:
    _require(isinstance(obj, dict), "'bind' must be an object")
    bind = {}
    for fid, pred in obj.items():
        _require(fid in ids, f"bind: undeclared node '{fid}'")
        _require(isinstance(pred, dict), f"bind '{fid}': predicate must be an object")
        clean = {}
        for attr, want in pred.items():
            if isinstance(want, str):
                clean[attr] = want
            elif isinstance(want, list) and all(isinstance(w, str) for w in want):
                clean[attr] = tuple(want)
            else:
                raise SpecSyntaxError(f"bind '{fid}': value for '{attr}' must be a string or list of strings")
        bind[fid] = clean
    return bind


def network_spec_from_document(doc) -> NetworkSpec:
    """Build a NetworkSpec from a decoded JSON document (syntactic checks only)."""
    _require(isinstance(doc, dict), "network document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "document")
    _require(isinstance(doc.get("root"), str), "document: 'root' must be a node id")
    _require(isinstance(doc.get("nodes"), list), "document: 'nodes' must be a list")

    nodes = tuple(_parse_node(obj) for obj in doc["nodes"])
    ids = set()
    for n in nodes:
        _require(n.id not in ids, f"duplicate node id '{n.id}'")
        ids.add(n.id)
    for n in nodes:
        for p in n.parents:
            _require(p in ids, f"node '{n.id}': undeclared parent '{p}'")
        for i in n.inputs:
            _require(i in ids, f"node '{n.id}': undeclared input '{i}'")
    _require(doc["root"] in ids, f"undeclared root '{doc['root']}'")

    bind = _parse_bind(doc.get("bind", {}), ids)
    return NetworkSpec(doc["root"], nodes, bind)


def parse_network_spec(text: str) -> NetworkSpec:
    """Parse a network-spec document; raises SpecSyntaxError with position on bad JSON."""
    return network_spec_from_document(load_json(text))


def serialize_network_spec(spec: NetworkSpec) -> str:
    return json.dumps(network_spec_to_document(spec), indent=2)


def network_spec_to_document(spec: NetworkSpec) -> dict:
    nodes = []
    for n in spec.nodes:
        obj: dict[str, Any] = {"id": n.id, "kind": n.kind, "states": list(n.states)}
        if len(n.parents) == 1:
            obj["parent"] = n.parents[0]
        elif n.parents:
            obj["parent"] = list(n.parents)
        if n.parents:
            obj["cpt"] = [list(r) for r in n.rows]
        else:
            obj["prior"] = list(n.rows[0])
        if n.kind == "relation":
            if n.evaluator is not None:
                obj["evaluator"] = n.evaluator
            if n.inputs:
                obj["inputs"] = list(n.inputs)
            if n.params:
                obj["params"] = dict(n.params)
        nodes.append(obj)
    doc: dict[str, Any] = {"root": spec.root, "nodes": nodes}
    if spec.bind:
        doc["bind"] = {f: {a: (list(v) if isinstance(v, tuple) else v) for a, v in p.items()}
                       for f, p in spec.bind.items()}
    return doc


def parse_evidence(text: str) -> EvidenceSet:
    doc = load_json(text)
    _require(isinstance(doc, dict) and set(doc) == {"assignments"}, "evidence document must be {\"assignments\": {...}}")
    asg = doc["assignments"]
    _require(isinstance(asg, dict) and all(isinstance(v, str) for v in asg.values()),
             "evidence assignments must map node ids to state labels")
    return EvidenceSet(dict(asg))


# ---------------------------------------------------------------------------
# validation


def _fmt_labels(labels) -> str:
    return "{" + ",".join(labels) + "}"


def network_diagnostics(spec: NetworkSpec) -> list[str]:
    """Every violated Network invariant, aggregated (empty list means valid):
    the tree structure, every CPT row, then :func:`relational_diagnostics`."""
    diags: list[str] = []
    by_id = {n.id: n for n in spec.nodes}

    diags += [f"duplicate node id '{nid}'" for nid, k in Counter(n.id for n in spec.nodes).items() if k > 1]
    for n in spec.nodes:
        if len(n.states) < 2:
            diags.append(f"node {n.id}: fewer than 2 states")
        seen = set()
        for s in n.states:
            if s in seen:
                diags.append(f"node {n.id}: duplicate state label '{s}'")
            seen.add(s)
        if len(n.parents) > 1:
            diags.append(f"node {n.id} has {len(n.parents)} parents; tree required")

    parentless = [n.id for n in spec.nodes if not n.parents]
    if not parentless:
        diags.append("no root: every node declares a parent")
    elif len(parentless) > 1:
        diags.append(f"multiple roots: {', '.join(parentless)} (exactly one parentless node required)")
    elif parentless[0] != spec.root:
        diags.append(f"declared root '{spec.root}' is not the parentless node ('{parentless[0]}')")

    # reachability via all declared parent edges; unreachable nodes sit on cycles
    children: dict[str, list[str]] = {n.id: [] for n in spec.nodes}
    for n in spec.nodes:
        for p in n.parents:
            children[p].append(n.id)
    reached = set(parentless)
    queue = list(parentless)
    while queue:
        for c in children[queue.pop()]:
            if c not in reached:
                reached.add(c)
                queue.append(c)
    stranded = [n.id for n in spec.nodes if n.id not in reached]
    if stranded:
        diags.append(f"cycle detected: {', '.join(stranded)} unreachable from the root")

    for n in spec.nodes:
        expected_rows = 1 if not n.parents else (
            len(by_id[n.parents[0]].states) if len(n.parents) == 1 else None)
        if expected_rows is not None and len(n.rows) != expected_rows:
            if n.parents:
                diags.append(f"node {n.id}: {len(n.rows)} cpt rows, parent '{n.parents[0]}' has {expected_rows} states")
            else:
                diags.append(f"node {n.id}: {len(n.rows)} rows, expected 1 (root prior)")
        for i, row in enumerate(n.rows):
            if len(row) != len(n.states):
                diags.append(f"node {n.id}: row {i} has {len(row)} entries, {len(n.states)} states declared")
                continue
            bad = [v for v in row if not (0.0 <= v <= 1.0)]
            if bad:
                diags.append(f"node {n.id}: cpt entry {bad[0]:g} outside [0,1] (row {i})")
                continue
            s = sum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                diags.append(f"node {n.id}: row sum {s:g} != 1 (row {i})")
    return diags + relational_diagnostics(spec)


def relational_diagnostics(spec: NetworkSpec) -> list[str]:
    """Invariants specific to relational specs (relation nodes and bindings)."""
    diags: list[str] = []
    by_id = {n.id: n for n in spec.nodes}
    parents = {p for n in spec.nodes for p in n.parents}

    for n in spec.nodes:
        if n.kind != "relation":
            continue
        if n.evaluator is None:
            diags.append(f"relation node {n.id}: missing evaluator")
            continue
        want = RELATION_STATES.get(n.evaluator)
        if want is None:
            diags.append(f"relation node {n.id}: unknown evaluator '{n.evaluator}'")
            continue
        if len(n.inputs) != 2:
            diags.append(f"relation node {n.id}: expected 2 inputs, got {len(n.inputs)}")
        for i in n.inputs:
            other = by_id.get(i)
            if other is None or other.kind != "chance" or i in parents:
                diags.append(f"relation node {n.id}: input '{i}' is not a feature (leaf) node")
        # inputs admitting the same colour classes bind the same region
        preds = [_colour_classes(spec.bind[i]) if i in spec.bind else None for i in n.inputs]
        if n.evaluator == "static" and None not in preds and preds[1:] != preds[:-1]:
            names = " and ".join(f"'{i}'" for i in n.inputs)
            diags.append(f"relation node {n.id}: static inputs {names} are bound by different predicates")
        if set(n.states) != set(want):
            diags.append(
                f"relation node {n.id}: states must be {{{', '.join(want)}}} for evaluator '{n.evaluator}'")
        for key, value in n.params.items():
            if key not in ("tau", "epsilon"):
                diags.append(f"relation node {n.id}: unknown param '{key}'")
            elif value <= 0:
                diags.append(f"relation node {n.id}: param '{key}' must be strictly positive")

    for fid, pred in spec.bind.items():
        node = by_id[fid]
        if node.kind != "chance" or fid in parents:
            diags.append(f"bound node {fid}: not a feature (leaf) node")
        if set(node.states) != set(FEATURE_STATES):
            diags.append(f"bound node {fid}: states must be {{present, absent}}")
        for attr, want in pred.items():
            if attr != "colour_class":
                diags.append(f"bound node {fid}: unknown predicate attribute '{attr}'")
                continue
            values = want if isinstance(want, (tuple, list)) else (want,)
            for v in values:
                if v not in COLOUR_CLASSES:
                    diags.append(f"bound node {fid}: unknown colour class '{v}'")
    return diags


def _colour_classes(pred: Mapping[str, Any]) -> frozenset[str]:
    """The colour classes a predicate admits, its only attribute: all when it names none."""
    want = pred.get("colour_class", COLOUR_CLASSES)
    return frozenset(want if isinstance(want, (tuple, list)) else (want,))


def normalised_rows(rows) -> np.ndarray:
    """Rows as a read-only float array, each renormalised to sum to 1 (CPTs
    and transition tables)."""
    cpt = np.asarray(rows, dtype=float)
    cpt = cpt / cpt.sum(axis=1, keepdims=True)
    cpt.flags.writeable = False
    return cpt


def validate_network(spec: NetworkSpec) -> Network:
    """Check every invariant; on success build a Network with rows renormalised.

    Raises InvalidNetworkError carrying the full diagnostic list on failure.
    """
    diags = network_diagnostics(spec)
    if diags:
        raise InvalidNetworkError(diags)

    nodes = [Node(n.id, n.kind, n.states, n.parent, normalised_rows(n.rows), n.evaluator,
                  n.inputs, dict(n.params)) for n in spec.nodes]
    by_id = {n.id: n for n in nodes}
    children: dict[str, list[str]] = {n.id: [] for n in nodes}
    for n in nodes:
        if n.parent is not None:
            children[n.parent].append(n.id)
    return Network(spec.root, tuple(nodes), by_id, {k: tuple(v) for k, v in children.items()})


def apply_evidence(net: Network, ev: EvidenceSet) -> InstantiatedNetwork:
    """Clamp observed nodes; pure annotation, never touches CPTs."""
    observed: dict[str, str] = {}
    for nid, label in ev.assignments.items():
        node = net.by_id.get(nid)
        if node is None:
            raise EvidenceError(f"unknown node '{nid}'")
        if label not in node.states:
            raise EvidenceError(f"node '{nid}': state '{label}' not in {_fmt_labels(node.states)}")
        observed[nid] = label
    return InstantiatedNetwork(net, observed)
