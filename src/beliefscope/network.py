"""Network data model: the JSON document format, parsing, validation and evidence.

Parsing is purely syntactic (shape, types, references); every numerical,
structural and relational invariant lives in :func:`network_diagnostics` so
that a bad document is reported with all of its problems at once.

Node entries of chance nodes are parsed as columns (:func:`_column_nodes`).  A spec
is checked by :func:`network_diagnostics` alone, the only source of every verdict and
message.  :func:`check_network` checks each spec object once, in pure Python, and
:func:`validate_network` also builds it once: its Network is derived data of the
immutable spec.  Each ``Node.cpt`` is a tuple of rows, each divided by its
:func:`math.fsum`, the one summation rule of the package: the exact sum rounded once,
so the same bits on every Python.  Nothing here imports numpy.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Any, Mapping

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
#: the node entries :func:`_column_nodes` takes: a root with a prior, a child with a cpt
_CHANCE_SHAPES = {frozenset({"id", "kind", "states", "prior"}),
                  frozenset({"id", "kind", "states", "parent", "cpt"})}
#: the type sets of the column passes' ``set(map(type, ...))`` tests, in every module
_DICT, _INT, _LIST, _STR, _NUMBER = {dict}, {int}, {list}, {str}, {int, float}


# ---------------------------------------------------------------------------
# records


class field:
    """A record field's default, made by ``default_factory()`` for each instance;
    ``repr=False`` leaves the field out of the record's repr."""

    def __init__(self, *, default_factory, repr: bool = True):
        self.default_factory = default_factory
        self.repr = repr


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls, values: dict, args: tuple, kwargs: dict):
    """Set the fields of ``cls`` from ``args`` by position, then from ``kwargs``, else
    from their defaults; a wrong argument list is a TypeError, as for a call."""
    names, defaults = cls._fields, cls._defaults
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values.update(zip(names, args))
    missing = []
    for name in names[len(args):]:
        if name in kwargs:
            values[name] = kwargs.pop(name)
        elif name in defaults:
            default = defaults[name]
            values[name] = default.default_factory() if isinstance(default, field) else default
        else:
            missing.append(name)
    for name in kwargs:
        raise TypeError(f"{cls.__qualname__}() got multiple values for argument '{name}'"
                        if name in names else
                        f"{cls.__qualname__}() got an unexpected keyword argument '{name}'")
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing required argument(s): "
                        + ", ".join(map(repr, missing)))


def record(cls=None, /, *, eq: bool = False):
    """Class decorator for a frozen record, as ``dataclass(frozen=True, eq=eq)`` makes it
    from the annotated fields, with or without a default or a :class:`field`:
    ``__init__`` takes them by position or keyword and then calls ``__post_init__``, if
    the class has one; setting or deleting an attribute raises AttributeError; ``repr``
    names the instance's own class.  With ``eq=True`` instances compare and hash by their
    fields, otherwise by identity.  :func:`replace` copies one with some fields changed."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    for name, default in defaults.items():
        if isinstance(default, field):
            delattr(cls, name)  # an instance's own value always stands
    shown = [name for name in names
             if not isinstance(defaults.get(name), field) or defaults[name].repr]
    post_init = getattr(cls, "__post_init__", None)
    n, positions = len(names), tuple(enumerate(names))

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        if kwargs or len(args) != n:
            _bind(cls, values, args, kwargs)
        else:  # every field by position: the hot case, a quarter faster than a zip
            for i, name in positions:
                values[name] = args[i]
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join([f"{name}={getattr(self, name)!r}" for name in shown]) + ")")

    cls._fields, cls._defaults = names, defaults
    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    if eq:
        key = attrgetter(*names)

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))
    return cls


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with ``changes`` to its fields, built through its
    ``__init__``, so that ``__post_init__`` checks it as it checks any new instance."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


@record(eq=True)
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


@record(eq=True)
class NetworkSpec:
    """Parsed, not yet validated, network document.

    ``bind`` maps feature node ids to region-attribute predicates and is only
    meaningful for relational models (see :mod:`beliefscope.relational`).
    """

    root: str
    nodes: tuple[NodeSpec, ...]
    bind: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def node(self, node_id: str) -> NodeSpec:
        return self._by_id[node_id]

    def with_root_prior(self, prior) -> "NetworkSpec":
        """Copy of this spec with the root's prior row replaced."""
        nodes = tuple(
            replace(n, rows=(tuple(float(p) for p in prior),)) if n.id == self.root else n
            for n in self.nodes
        )
        return replace(self, nodes=nodes)

    @cached_property  # each derived once for diagnostics and validation alike
    def _checked(self) -> bool:
        """:func:`check_network`'s verdict; not kept while the spec is invalid."""
        diags = network_diagnostics(self)
        if diags:
            raise InvalidNetworkError(diags)
        return True

    @cached_property
    def _network(self) -> Network:
        """:func:`validate_network`'s Network, built once the spec is checked."""
        check_network(self)
        return _build_network(self)

    @cached_property
    def _by_id(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _children(self) -> dict[str, list[str]]:
        """Each node's children by every declared parent edge, in node order."""
        children: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for p in n.parents:
                children[p].append(n.id)
        return children


# kept for infer, the demos, bench/tests/test_oracle.py and bench/tracing.py
@record(eq=True)
class EvidenceSet:
    """Observed state assignments for a subset of nodes."""

    assignments: Mapping[str, str] = field(default_factory=dict)


@record
class Node:
    """Validated node: CPT as rows (per parent state, or the prior) of floats summing to 1."""

    id: str
    kind: str
    states: tuple[str, ...]
    parent: str | None
    cpt: tuple[tuple[float, ...], ...]
    evaluator: str | None = None
    inputs: tuple[str, ...] = ()
    params: Mapping[str, float] = field(default_factory=dict)


@record
class Network:
    """Validated tree network; immutable and safe to share."""

    root: str
    nodes: tuple[Node, ...]
    by_id: Mapping[str, Node]
    children: Mapping[str, tuple[str, ...]]
    memo: dict = field(default_factory=dict, repr=False)  # derived data, filled on first use

    def node(self, node_id: str) -> Node:
        return self.by_id[node_id]


# kept for infer, the demos, bench/tests/test_oracle.py and bench/tracing.py
@record
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
    raise SpecSyntaxError(f"non-finite number '{name}' is not allowed")  # the hook has no position


_DECODER = json.JSONDecoder(object_pairs_hook=_checked_object, parse_constant=_reject_constant)
#: the C decoder without the duplicate-key hook; see load_json
_PLAIN_JSON = json.JSONDecoder(parse_constant=_reject_constant)
#: a NaN token under ``load_json(..., cut=True)``: where ``relational.cut_masks`` cut a mask
CUT = object()
_CUT_DECODERS = tuple(json.JSONDecoder(object_pairs_hook=hook, parse_constant=lambda name: (
    CUT if name == "NaN" else _reject_constant(name))) for hook in (None, _checked_object))


def _key_count(doc) -> int:
    """The keys of the objects where a model, evidence, scene or stream-line document
    holds them: the top object, the objects among its values (``bind``,
    ``assignments``) with their object values, and the objects of its lists of objects."""
    if type(doc) is not dict:
        return 0
    count = len(doc)
    for value in doc.values():
        if type(value) is list and set(map(type, value)) <= _DICT:
            count += sum(map(len, value))
        elif type(value) is dict:
            count += len(value) + sum([len(v) for v in value.values() if type(v) is dict])
    return count


def load_json(text: str, line: int = 1, cut: bool = False):
    """json.loads with duplicate-key detection, no NaN/Infinity literals and
    positioned syntax errors; ``line`` is the number of the text's first line
    in its file.  A value nested deeper than the decoder can recurse is
    reported at the line where the nesting is deepest (:func:`_deepest_line`).

    The plain C decoder keeps the last of repeated keys.  Every key is followed
    by a colon outside any string, so when the text has exactly as many colons
    as :func:`_key_count` finds keys, no key was repeated and there is no other
    object: the plain decode stands.  Any other text is decoded again with the
    duplicate-key hook, which names what is wrong."""
    plain, checked = _CUT_DECODERS if cut else (_PLAIN_JSON, _DECODER)
    try:
        doc = plain.decode(text)
    except (ValueError, RecursionError, SpecSyntaxError):
        pass
    else:
        if text.count(":") == _key_count(doc):
            return doc
    try:
        return checked.decode(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno + line - 1, column=exc.colno) from None
    except RecursionError:
        raise SpecSyntaxError("JSON value nested too deeply",
                              line=_deepest_line(text) + line - 1, column=1) from None


#: a string (its closing quote missing at the end of the text), an opening or closing bracket,
#: a newline; compiled on first use, by ``re``'s own cache, as only a too deep document needs it
_NESTING_TOKEN = r'(?s)"(?:[^"\\]|\\.)*"?|[\[{]|[\]}]|\n'


def _deepest_line(text: str) -> int:
    """The line of ``text``, counted from 1, where the depth of brackets outside
    strings first reaches its maximum."""
    depth = deepest = 0
    line = where = 1
    for token in re.finditer(_NESTING_TOKEN, text):
        kind = token.group()
        if kind in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, where = depth, line
        elif kind in ("]", "}"):
            depth -= 1
        else:
            line += kind.count("\n")
    return where


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


def _parse_node(obj) -> NodeSpec:
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


def _column_nodes(objs: list) -> tuple[NodeSpec, ...] | None:
    """The NodeSpecs of node entries checked in column passes, or None unless each is a
    chance node of :data:`_CHANCE_SHAPES` that :func:`_parse_node` takes."""
    if not (set(map(type, objs)) <= _DICT and set(map(frozenset, objs)) <= _CHANCE_SHAPES):
        return None
    ids, kinds, states = (list(map(itemgetter(key), objs)) for key in ("id", "kind", "states"))
    parents = [(o["parent"],) if "parent" in o else () for o in objs]
    tables = [[o["prior"]] if "prior" in o else o["cpt"] for o in objs]
    if not set(map(type, tables)) <= _LIST:
        return None
    rows = list(chain.from_iterable(tables))
    if not set(map(type, rows)) <= _LIST:
        return None
    values = list(chain.from_iterable(rows))
    numbers = set(map(type, values))
    try:
        if not (set(map(type, ids)) <= _STR and all(ids) and kinds.count("chance") == len(ids)
                and set(map(type, states)) <= _LIST and set(map(type, chain(*states))) <= _STR
                and set(map(type, chain(*parents))) <= _STR
                and numbers <= _NUMBER and all(map(math.isfinite, values))):
            return None
    except OverflowError:  # an integer too large for a float
        return None
    as_row = tuple if numbers <= {float} else (lambda row: tuple(map(float, row)))
    # all eight fields by position, the records' fast path, each node with its own params dict
    return tuple(map(NodeSpec, ids, kinds, map(tuple, states), parents,
                     [tuple(map(as_row, t)) for t in tables], repeat(None), repeat(()), iter(dict, None)))


def network_spec_from_document(doc) -> NetworkSpec:
    """Build a NetworkSpec from a decoded JSON document (syntactic checks only)."""
    _require(isinstance(doc, dict), "network document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "document")
    _require(isinstance(doc.get("root"), str), "document: 'root' must be a node id")
    _require(isinstance(doc.get("nodes"), list), "document: 'nodes' must be a list")

    nodes = _column_nodes(doc["nodes"]) or tuple(_parse_node(obj) for obj in doc["nodes"])
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


def evidence_from_document(doc) -> EvidenceSet:
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
    by_id = spec._by_id

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
    children = spec._children
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
            s = math.fsum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                diags.append(f"node {n.id}: row sum {s:g} != 1 (row {i})")
    return diags + relational_diagnostics(spec)


def relational_diagnostics(spec: NetworkSpec) -> list[str]:
    """Invariants specific to relational specs (relation nodes and bindings)."""
    diags: list[str] = []
    by_id = spec._by_id
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


def normalised_rows(rows) -> tuple[tuple[float, ...], ...]:
    """Rows (CPTs and transition tables) each divided by its :func:`math.fsum`."""
    return tuple(tuple([v / total for v in row]) for row, total in zip(rows, map(math.fsum, rows)))


def check_network(spec: NetworkSpec) -> None:
    """Check every invariant, once per spec object, building nothing; raises
    InvalidNetworkError carrying the full diagnostic list on every call while
    the spec is invalid."""
    spec._checked


def validate_network(spec: NetworkSpec) -> Network:
    """:func:`check_network`; on success the Network with rows renormalised,
    built once: later calls return the same Network."""
    return spec._network


def _build_network(spec: NetworkSpec) -> Network:
    """The Network of a spec that :func:`network_diagnostics` finds valid,
    or one valid by construction, its CPT rows renormalised."""
    nodes = tuple(Node(n.id, n.kind, n.states, n.parent, normalised_rows(n.rows), n.evaluator,
                       n.inputs, dict(n.params)) for n in spec.nodes)
    return Network(spec.root, nodes, {n.id: n for n in nodes},
                   {k: tuple(v) for k, v in spec._children.items()})


# kept for infer, the demos, bench/tests/test_oracle.py and bench/tracing.py
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
