"""Colonoscopy models, the IF/THEN rule compiler, and synthetic scene streams.

Every probability the shipped models use comes from one editable defaults
table; the values encode only qualitative orderings (a cause makes its
observables likelier, an object tends to persist across frames), so tests
assert orderings rather than the numbers themselves.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import RuleSyntaxError
from .network import (
    BOOLEAN_STATES,
    COLOUR_CLASSES,
    DISTANCE_STATES,
    FEATURE_STATES,
    NetworkSpec,
    NodeSpec,
    finite_number,
)
from .relational import Region
from .temporal import DynamicModel, Frame, FrameStream, TemporalModel

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
    return TemporalModel(spec, np.array([[t, u], [u, t]]), mode="paper")


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


# ---------------------------------------------------------------------------
# synthetic scene streams


def _spot(cx: float, cy: float) -> Region:
    x, y = int(round(cx)), int(round(cy))
    return Region(id="spot", colour_class="yellow", centroid=(cx, cy), area=9,
                  bbox=(x - 1, y - 1, x + 1, y + 1))


def _static_spot(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    frames = []
    for _ in range(n):
        jx = round(rng.uniform(-0.4, 0.4), 2)
        jy = round(rng.uniform(-0.4, 0.4), 2)
        frames.append((_spot(50.0 + jx, 50.0 + jy),))
    return frames


def _moving_spot(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    # 15 px/frame: beyond both the static epsilon and the matching delta
    return [(_spot(20.0 + 15.0 * i, 50.0),) for i in range(n)]


def _ring_mask(size: int, band: int) -> np.ndarray:
    mask = np.ones((size, size), dtype=bool)
    mask[band:-band, band:-band] = False
    return mask


def _surround_scene(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    ring = Region(id="ring", colour_class="bright", centroid=(30.0, 30.0),
                  area=int(_ring_mask(21, 3).sum()), bbox=(20, 20, 40, 40),
                  mask=_ring_mask(21, 3))
    blob = Region(id="blob", colour_class="dark", centroid=(24.0, 24.0), area=9,
                  bbox=(23, 23, 25, 25), mask=np.ones((3, 3), dtype=bool))
    return [(ring, blob)] * n


def _adjacent_scene(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    bright = Region(id="bright", colour_class="bright", centroid=(11.0, 11.0), area=9,
                    bbox=(10, 10, 12, 12), mask=np.ones((3, 3), dtype=bool))
    dark = Region(id="dark", colour_class="dark", centroid=(14.0, 11.0), area=9,
                  bbox=(13, 10, 15, 12), mask=np.ones((3, 3), dtype=bool))
    return [(bright, dark)] * n


def _empty(rng: random.Random, n: int) -> list[tuple[Region, ...]]:
    return [()] * n


SCENARIOS = {
    "static_spot": _static_spot,
    "moving_spot": _moving_spot,
    "surround_scene": _surround_scene,
    "adjacent_scene": _adjacent_scene,
    "empty": _empty,
}


def generate_stream(scenario: str, n_frames: int, *, seed: int = 0, dt: float = 0.04) -> FrameStream:
    """Deterministic synthetic stream: same (scenario, seed) -> identical bytes."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{scenario}' (expected one of {', '.join(sorted(SCENARIOS))})")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = random.Random(seed)
    region_sets = SCENARIOS[scenario](rng, n_frames)
    frames = tuple(Frame(i, round(i * dt, 6), regions) for i, regions in enumerate(region_sets))
    return FrameStream(frames, dt)
