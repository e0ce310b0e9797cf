"""Semi-static and dynamic models, their documents, the shipped colonoscopy models and
the IF/THEN rule compiler.  Nothing here imports numpy or the stream, propagation and
generation code, so ``validate`` and ``compile`` check a model in pure Python.

Every probability the shipped models use comes from one editable defaults table; the
values encode only qualitative orderings (a cause makes its observables likelier, an
object tends to persist across frames), so tests assert orderings, not the numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Union

from .errors import InvalidNetworkError, RuleSyntaxError, SpecSyntaxError
from .network import (
    BOOLEAN_STATES, COLOUR_CLASSES, DISTANCE_STATES, FEATURE_STATES, RELATION_STATES, ROW_SUM_TOL,
    NetworkSpec, NodeSpec, _as_str_list, check_network, finite_number, network_diagnostics,
    network_spec_from_document, network_spec_to_document, strict_int)

MODES = ("paper", "filter")

DEFAULT_MATCH_DELTA = 10.0
DEFAULT_MAX_WINDOW = 5


@dataclass(frozen=True, eq=False)
class TemporalModel:
    """Per-frame relational spec plus the hypothesis transition table, valid by construction
    (InvalidNetworkError carries the diagnostics of both).  ``transition`` keeps the checked
    rows as float tuples; filtering renormalises them.  The per-frame spec is checked once
    (:func:`check_network`), so a model rebuilt over it is not checked again."""

    per_frame: NetworkSpec
    transition: tuple[tuple[float, ...], ...]
    mode: str = "paper"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidNetworkError([f"mode must be one of {MODES}"])
        k = len(self.per_frame.node(self.per_frame.root).states)
        try:
            check_network(self.per_frame)
            diags = []
        except InvalidNetworkError as exc:
            diags = exc.diagnostics
        try:
            rows = tuple(tuple(map(float, row)) for row in self.transition)
        except TypeError:  # not a table of numbers
            rows = ()
        if len(rows) != k or any(len(row) != k for row in rows):
            diags.append(f"transition must be {k}x{k} over the hypothesis states")
        else:
            for i, row in enumerate(rows):
                if not all(map(math.isfinite, row)):
                    diags.append(f"transition: non-finite entry (row {i})")
                    continue
                if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                    diags.append(f"transition: row sum {sum(row):g} != 1 (row {i})")
                if not all(0.0 <= v <= 1.0 for v in row):
                    diags.append(f"transition: entry outside [0,1] (row {i})")
        if diags:
            raise InvalidNetworkError(diags)
        object.__setattr__(self, "transition", rows)

    @property
    def hypothesis(self) -> str:
        return self.per_frame.root


@dataclass(frozen=True, eq=False)
class DynamicModel:
    """Template for window recognition: hypothesis, per-frame presence node,
    and one inter-frame relation node per consecutive pair.

    Valid by construction: InvalidNetworkError carries every diagnostic of
    the fields, then of the template's rows and predicate, each once: they
    are checked on a star with one presence node, bound by the predicate
    (``bound node <feature>_0: ...``), and one relation node over it, which
    is left out while the evaluator has no states.  Node ids must differ in
    every window of up to ``max_window`` frames.  So every such window's tree
    is valid, and :func:`~beliefscope.temporal.dynamic_chunks` builds it
    without checking it again.
    """

    hypothesis_id: str
    hypothesis_states: tuple[str, ...]
    prior: tuple[float, ...]
    feature_id: str
    feature_rows: tuple[tuple[float, ...], ...]
    predicate: Mapping[str, Any]
    relation_id: str
    relation_evaluator: str
    relation_rows: tuple[tuple[float, ...], ...]
    params: Mapping[str, float] = field(default_factory=dict)
    delta: float = DEFAULT_MATCH_DELTA
    max_window: int = DEFAULT_MAX_WINDOW

    def __post_init__(self):
        diags = []
        if self.relation_evaluator not in ("static", "distance"):
            diags.append(f"dynamic relation evaluator must be static or distance, "
                         f"got '{self.relation_evaluator}'")
        if self.max_window < 2:
            diags.append("max_window must be >= 2")
        if self.delta <= 0:
            diags.append("match delta must be strictly positive")
        presence = f"{self.feature_id}_0"
        relations = ([(f"{self.relation_id}_0_1", presence, presence)]
                     if self.relation_evaluator in RELATION_STATES else [])
        diags += network_diagnostics(_star_spec(self, [presence], relations))
        # Windows of k frames hold the hypothesis, F_i (i < k) and R_j_(j+1) (j + 1 < k); no two F_i
        # or R_j_(j+1) are equal, so ids are shared only if the hypothesis is one of them or F is some R_j.
        k, hyp, fid, rid = self.max_window, self.hypothesis_id, self.feature_id, self.relation_id
        j, f = _window_index(hyp.rpartition("_")[0], rid, k - 1), _window_index(fid, rid, k - 1)
        shared = [hyp] if (_window_index(hyp, fid, k) is not None
                           or j is not None and hyp.endswith(f"_{j + 1}")) else []
        shared += [f"{fid}_{f + 1}"] if f is not None else []  # equal to R_f_(f+1)
        diags += [d for d in dict.fromkeys(f"duplicate node id '{nid}'" for nid in shared)
                  if d not in diags]
        if diags:
            raise InvalidNetworkError(diags)


def _window_index(nid: str, prefix: str, limit: int) -> int | None:
    """i when ``nid`` is ``f"{prefix}_{i}"`` for some 0 <= i < limit, else None."""
    m = re.fullmatch(re.escape(prefix) + "_(0|[1-9][0-9]*)", nid)
    # an index with more digits than limit is not below it, and is never converted
    return int(m[1]) if m and len(m[1]) <= len(str(limit)) and int(m[1]) < limit else None


def _star_spec(model: DynamicModel, presence: Sequence[str],
               relations: Sequence[tuple[str, str, str]]) -> NetworkSpec:
    """The model's hypothesis over the presence nodes ``presence``, each bound
    by the model's predicate, and over relation nodes given as (id, input,
    input)."""
    nodes = [NodeSpec(model.hypothesis_id, "chance", tuple(model.hypothesis_states), (),
                      (tuple(model.prior),))]
    for fid in presence:
        nodes.append(NodeSpec(fid, "chance", FEATURE_STATES, (model.hypothesis_id,),
                              tuple(tuple(r) for r in model.feature_rows)))
    for rid, a, b in relations:
        nodes.append(NodeSpec(
            rid, "relation", RELATION_STATES[model.relation_evaluator],
            (model.hypothesis_id,), tuple(tuple(r) for r in model.relation_rows),
            evaluator=model.relation_evaluator, inputs=(a, b), params=dict(model.params)))
    return NetworkSpec(model.hypothesis_id, tuple(nodes), {fid: model.predicate for fid in presence})


def _window_ids(model: DynamicModel, k: int) -> tuple[list[str], list[str]]:
    """The presence and relation node ids of a k-frame window, in frame order."""
    return ([f"{model.feature_id}_{i}" for i in range(k)],
            [f"{model.relation_id}_{i}_{i + 1}" for i in range(k - 1)])


def window_spec(model: DynamicModel, k: int) -> NetworkSpec:
    """The tree for a k-frame window: hypothesis -> k presence nodes, each
    bound by the model's predicate, + k-1 relation nodes."""
    presence, relations = _window_ids(model, k)
    return _star_spec(model, presence, [(rid, presence[i], presence[i + 1])
                                        for i, rid in enumerate(relations)])


# ---------------------------------------------------------------------------
# model documents


def semi_static_from_document(doc) -> TemporalModel:
    if not (isinstance(doc, dict) and doc.get("type") == "semi_static"):
        raise SpecSyntaxError('semi-static model document must have "type": "semi_static"')
    for key in doc:
        if key not in {"type", "per_frame", "transition", "mode"}:
            raise SpecSyntaxError(f"semi-static model: unknown field '{key}'")
    if "per_frame" not in doc or "transition" not in doc:
        raise SpecSyntaxError("semi-static model: 'per_frame' and 'transition' required")
    spec = network_spec_from_document(doc["per_frame"])
    trans = doc["transition"]
    if not (isinstance(trans, list) and all(isinstance(r, list) for r in trans)):
        raise SpecSyntaxError("semi-static model: 'transition' must be a list of rows")
    rows = [[finite_number(v, "semi-static model: 'transition'") for v in r] for r in trans]
    return TemporalModel(spec, rows, doc.get("mode", "paper"))


def semi_static_to_document(model: TemporalModel) -> dict:
    return {
        "type": "semi_static",
        "mode": model.mode,
        "transition": [list(row) for row in model.transition],
        "per_frame": network_spec_to_document(model.per_frame),
    }


def dynamic_from_document(doc) -> DynamicModel:
    if not (isinstance(doc, dict) and doc.get("type") == "dynamic"):
        raise SpecSyntaxError('dynamic model document must have "type": "dynamic"')
    for key in doc:
        if key not in {"type", "hypothesis", "feature", "relation", "max_window", "delta"}:
            raise SpecSyntaxError(f"dynamic model: unknown field '{key}'")
    try:
        hyp, feat, rel = doc["hypothesis"], doc["feature"], doc["relation"]
        return DynamicModel(
            hypothesis_id=hyp["id"],
            hypothesis_states=_as_str_list(hyp["states"], "dynamic model: hypothesis 'states'"),
            prior=tuple(finite_number(p, "dynamic model: hypothesis 'prior'")
                        for p in hyp["prior"]),
            feature_id=feat["id"],
            feature_rows=tuple(tuple(finite_number(v, "dynamic model: feature 'cpt'") for v in r)
                               for r in feat["cpt"]),
            predicate={a: (tuple(v) if isinstance(v, list) else v) for a, v in feat["bind"].items()},
            relation_id=rel["id"],
            relation_evaluator=rel["evaluator"],
            relation_rows=tuple(tuple(finite_number(v, "dynamic model: relation 'cpt'") for v in r)
                                for r in rel["cpt"]),
            params={k: finite_number(v, f"dynamic model: relation param '{k}'")
                    for k, v in rel.get("params", {}).items()},
            delta=finite_number(doc.get("delta", DEFAULT_MATCH_DELTA), "dynamic model: 'delta'"),
            max_window=strict_int(doc.get("max_window", DEFAULT_MAX_WINDOW),
                                  "dynamic model: 'max_window'"),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise SpecSyntaxError(f"malformed dynamic model document: {exc}") from None


def dynamic_to_document(model: DynamicModel) -> dict:
    rel: dict[str, Any] = {
        "id": model.relation_id,
        "evaluator": model.relation_evaluator,
        "cpt": [list(r) for r in model.relation_rows],
    }
    if model.params:
        rel["params"] = dict(model.params)
    return {
        "type": "dynamic",
        "hypothesis": {"id": model.hypothesis_id, "states": list(model.hypothesis_states),
                       "prior": list(model.prior)},
        "feature": {"id": model.feature_id, "cpt": [list(r) for r in model.feature_rows],
                    "bind": {a: (list(v) if isinstance(v, tuple) else v)
                             for a, v in model.predicate.items()}},
        "relation": rel,
        "max_window": model.max_window,
        "delta": model.delta,
    }


# ---------------------------------------------------------------------------
# the shipped colonoscopy models


#: the one place the shipped models take their numbers from
DEFAULT_PROBS: dict[str, float] = {
    "hypothesis_prior": 0.5,       # P(object present) before any evidence
    "feature_given_present": 0.8,  # P(feature present | object present)
    "feature_given_absent": 0.2,   # P(feature present | object absent)
    "relation_given_present": 0.8,  # P(relation holds / near | object present)
    "relation_given_absent": 0.2,   # P(relation holds / near | object absent)
    "transition_persist": 0.9,     # P(same hypothesis state at the next frame)
}

HYPOTHESIS_STATES = ("present", "absent")

BUILTIN_MODELS = ("diverticulum", "bend", "dirty_lens", "lumen_tracker")

Model = Union[NetworkSpec, TemporalModel, DynamicModel]


@dataclass(frozen=True, eq=False)
class BuiltinModel:
    name: str
    model: Model
    defaults: Mapping[str, float]


def _one_minus(p: float) -> float:
    # keep emitted documents readable (1 - 0.8 would print as 0.19999...96)
    return round(1.0 - p, 15)


def _binary_rows(p_given_true: float, p_given_false: float) -> tuple:
    return ((p_given_true, _one_minus(p_given_true)),
            (p_given_false, _one_minus(p_given_false)))


def _merged(defaults: Mapping[str, float] | None) -> dict[str, float]:
    merged = dict(DEFAULT_PROBS)
    if defaults:
        unknown = set(defaults) - set(DEFAULT_PROBS)
        if unknown:
            raise ValueError(f"unknown default probability roles: {', '.join(sorted(unknown))}")
        for role, p in defaults.items():
            finite_number(p, f"default '{role}'")
        merged.update(defaults)
    return merged


def _feature(fid: str, parent: str, d: Mapping[str, float]) -> NodeSpec:
    return NodeSpec(fid, "chance", FEATURE_STATES, (parent,),
                    _binary_rows(d["feature_given_present"], d["feature_given_absent"]))


def _hypothesis(hid: str, states, d: Mapping[str, float]) -> NodeSpec:
    p = d["hypothesis_prior"]
    return NodeSpec(hid, "chance", tuple(states), (), ((p, _one_minus(p)),))


def _relation_rows(d: Mapping[str, float]) -> tuple:
    return _binary_rows(d["relation_given_present"], d["relation_given_absent"])


def _diverticulum(d: Mapping[str, float]) -> NetworkSpec:
    nodes = (
        _hypothesis("diverticulum", HYPOTHESIS_STATES, d),
        _feature("bright_region", "diverticulum", d),
        _feature("dark_region", "diverticulum", d),
        NodeSpec("topo_relation", "relation", BOOLEAN_STATES, ("diverticulum",),
                 _relation_rows(d), evaluator="surrounding",
                 inputs=("bright_region", "dark_region")),
    )
    bind = {"bright_region": {"colour_class": "bright"}, "dark_region": {"colour_class": "dark"}}
    return NetworkSpec("diverticulum", nodes, bind)


def _bend(d: Mapping[str, float]) -> NetworkSpec:
    # tau=6: with 3x3 desk-scale regions a 1 px gap means a centroid distance
    # of ~3-4 px, which must land in the near bin
    nodes = (
        _hypothesis("bend", HYPOTHESIS_STATES, d),
        _feature("dark_region", "bend", d),
        _feature("bright_arc", "bend", d),
        NodeSpec("distance_relation", "relation", DISTANCE_STATES, ("bend",),
                 _relation_rows(d), evaluator="distance",
                 inputs=("dark_region", "bright_arc"), params={"tau": 6.0}),
    )
    bind = {"dark_region": {"colour_class": "dark"}, "bright_arc": {"colour_class": "bright"}}
    return NetworkSpec("bend", nodes, bind)


def _lumen_tracker(d: Mapping[str, float]) -> TemporalModel:
    nodes = (_hypothesis("lumen", ("lumen", "not_lumen"), d), _feature("dark_region", "lumen", d))
    spec = NetworkSpec("lumen", nodes, {"dark_region": {"colour_class": "dark"}})
    t = d["transition_persist"]
    u = _one_minus(t)
    return TemporalModel(spec, ((t, u), (u, t)), mode="paper")


def _static_template(hypothesis: str, feature: str, colours, d: Mapping[str, float], **params) -> DynamicModel:
    """A window template over one feature bound by ``colours`` and whether it stays put."""
    prior = _hypothesis(hypothesis, HYPOTHESIS_STATES, d).rows[0]
    return DynamicModel(hypothesis, HYPOTHESIS_STATES, prior, feature, _feature(feature, hypothesis, d).rows,
                        {"colour_class": colours}, "static_relation", "static", _relation_rows(d), params)


def _dirty_lens(d: Mapping[str, float]) -> DynamicModel:
    return _static_template("dirty_lens", "spot", ("yellow", "green", "brown"), d, epsilon=2.0)


_BUILDERS = {
    "diverticulum": _diverticulum,
    "bend": _bend,
    "lumen_tracker": _lumen_tracker,
    "dirty_lens": _dirty_lens,
}


def builtin_model(name: str, defaults: Mapping[str, float] | None = None) -> BuiltinModel:
    """One of the shipped models, with CPTs drawn from the defaults table."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown model '{name}' (expected one of {', '.join(BUILTIN_MODELS)})")
    merged = _merged(defaults)
    return BuiltinModel(name, _BUILDERS[name](merged), merged)


# ---------------------------------------------------------------------------
# rule DSL


_RELATION_KEYWORDS = {"SURROUNDING": "surrounding", "ADJACENT": "distance"}
_KEYWORDS = {"IF", "THEN", "OR", "STATIC", "&"} | set(_RELATION_KEYWORDS)
_ARTICLES = {"a", "an", "the"}


@dataclass(frozen=True)
class _Token:
    text: str
    pos: int

    @property
    def upper(self) -> str:
        return self.text.upper()


class _Rule:
    """Cursor over rule tokens with positioned errors."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [_Token(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise RuleSyntaxError("unexpected end of rule", len(self.text))
        self.i += 1
        return tok

    def expect(self, keyword: str) -> _Token:
        tok = self.take()
        if tok.upper != keyword:
            raise RuleSyntaxError(f"expected {keyword}, got '{tok.text}'", tok.pos)
        return tok

    def skip(self, words) -> None:
        while (tok := self.peek()) is not None and tok.text.lower() in words:
            self.i += 1


def _is_boundary(tok: _Token) -> bool:
    return tok.upper in _KEYWORDS


def _check_not_stray_keyword(tok: _Token) -> None:
    # an ALL-CAPS token in relation position that isn't a known keyword
    if len(tok.text) > 1 and tok.text.isupper() and tok.upper not in _KEYWORDS:
        raise RuleSyntaxError(f"unknown relation {tok.text}", tok.pos)


def _parse_feature(rule: _Rule) -> tuple[tuple[str, ...], list[str]]:
    """A feature term: colour ("or" colour)* noun-words."""
    rule.skip(_ARTICLES)
    tok = rule.take()
    _check_not_stray_keyword(tok)
    if tok.text.lower() not in COLOUR_CLASSES:
        raise RuleSyntaxError(f"unknown colour class '{tok.text}'", tok.pos)
    colours = [tok.text.lower()]
    while (nxt := rule.peek()) is not None and nxt.upper == "OR":
        rule.take()
        tok = rule.take()
        if tok.text.lower() not in COLOUR_CLASSES:
            raise RuleSyntaxError(f"unknown colour class '{tok.text}'", tok.pos)
        colours.append(tok.text.lower())
    noun = []
    while (nxt := rule.peek()) is not None and not _is_boundary(nxt):
        _check_not_stray_keyword(nxt)
        noun.append(rule.take().text.lower())
    if not noun:
        where = rule.peek().pos if rule.peek() is not None else len(rule.text)
        raise RuleSyntaxError("expected a noun after the colour terms", where)
    return tuple(colours), noun


def _feature_node_id(colours, noun) -> str:
    return "_".join([*colours, *noun])


def compile_rule(text: str, defaults: Mapping[str, float] | None = None) -> Model:
    """Compile an IF/THEN rule into a model spec.

    Grammar: ``IF feature (relation feature)? ("&" STATIC)? THEN object`` with
    ``feature := colour ("or" colour)* noun`` and relation keywords
    SURROUNDING / ADJACENT (case-insensitive).  Articles, "to" after a
    relation keyword and "in image" after STATIC are tolerated as noise so the
    rules read naturally.  CPTs come from the defaults table.
    """
    d = _merged(defaults)
    rule = _Rule(text)
    rule.expect("IF")
    first = _parse_feature(rule)

    relation = None
    second = None
    temporal = False
    tok = rule.peek()
    if tok is not None and tok.upper in _RELATION_KEYWORDS:
        relation = _RELATION_KEYWORDS[rule.take().upper]
        rule.skip({"to"})
        second = _parse_feature(rule)
        tok = rule.peek()
    if tok is not None and tok.text == "&":
        rule.take()
        nxt = rule.take()
        if nxt.upper != "STATIC":
            raise RuleSyntaxError(f"unknown relation {nxt.text}", nxt.pos)
        temporal = True
        rule.skip({"in", "image"})
    elif tok is not None and tok.upper == "STATIC":
        raise RuleSyntaxError("expected '&' before STATIC", tok.pos)

    rule.expect("THEN")
    object_words = []
    while rule.peek() is not None:
        object_words.append(rule.take().text.lower())
    if not object_words:
        raise RuleSyntaxError("expected an object after THEN", len(text))
    hypothesis = "_".join(object_words)

    if temporal:
        if relation is not None:
            raise RuleSyntaxError("a rule cannot combine a spatial relation with STATIC",
                                  len(text))
        colours, noun = first
        return _static_template(hypothesis, _feature_node_id(colours, noun),
                                colours if len(colours) > 1 else colours[0], d)

    features = [first] + ([second] if second is not None else [])
    nodes = [_hypothesis(hypothesis, HYPOTHESIS_STATES, d)]
    bind = {}
    ids = []
    for colours, noun in features:
        fid = _feature_node_id(colours, noun)
        while fid in bind or fid == hypothesis:
            fid += "_2"
        ids.append(fid)
        nodes.append(_feature(fid, hypothesis, d))
        bind[fid] = {"colour_class": colours if len(colours) > 1 else colours[0]}
    if relation is not None:
        states = DISTANCE_STATES if relation == "distance" else BOOLEAN_STATES
        nodes.append(NodeSpec(f"{relation}_relation", "relation", states, (hypothesis,),
                              _relation_rows(d), evaluator=relation,
                              inputs=(ids[0], ids[1])))
    return NetworkSpec(hypothesis, tuple(nodes), bind)
