"""Temporal recognition over frame streams.

Semi-static filtering rolls each frame's posterior into the next frame's
prior through a transition table; dynamic recognition puts each window of
frames under the hypothesis as a star, with a per-frame presence node and an
inter-frame relation node per consecutive matched pair.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BeliefscopeError,
    FrameInferenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    SpecSyntaxError,
    StreamValidationError,
)
from .network import (
    ABSENT,
    FEATURE_STATES,
    PRESENT,
    RELATION_STATES,
    ROW_SUM_TOL,
    EvidenceSet,
    Network,
    NetworkSpec,
    NodeSpec,
    apply_evidence,
    finite_number,
    load_json,
    network_diagnostics,
    network_spec_from_document,
    network_spec_to_document,
    normalised_rows,
    strict_int,
    validate_network,
)
from .propagation import observation_codes, posterior, sig10, upward
from .relational import (
    DEFAULT_EPSILON,
    DEFAULT_TAU,
    Region,
    bind_features,
    eval_relation,
    region_from_document,
    region_to_document,
    relation_evidence,
    select_region,
)

MODES = ("paper", "filter")

DEFAULT_MATCH_DELTA = 10.0
DEFAULT_AREA_RATIO = (0.5, 2.0)
DEFAULT_MAX_WINDOW = 5


@dataclass(frozen=True, eq=False)
class Frame:
    """Time-indexed set of regions."""

    index: int
    t: float
    regions: tuple[Region, ...] = ()

    def __post_init__(self):
        if self.index < 0:
            raise StreamValidationError(f"frame index {self.index} must be >= 0")
        seen = set()
        for r in self.regions:
            if r.id in seen:
                raise StreamValidationError(f"frame {self.index}: duplicate region id '{r.id}'")
            seen.add(r.id)


@dataclass(frozen=True, eq=False)
class FrameStream:
    """Ordered frames with a nominal inter-frame interval ``dt`` (seconds)."""

    frames: tuple[Frame, ...]
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise StreamValidationError("dt must be positive")
        for a, b in zip(self.frames, self.frames[1:]):
            if b.index <= a.index:
                raise StreamValidationError(
                    f"frame indices out of order: {a.index} followed by {b.index}")
            if abs((b.t - a.t) - self.dt) > 0.1 * self.dt:
                raise StreamValidationError(
                    f"interval {b.t - a.t:g} between frames {a.index} and {b.index} "
                    f"deviates from dt {self.dt:g} by more than 10%")


def parse_stream(text: str) -> FrameStream:
    """Parse a JSONL stream: a {"dt": ...} header line then one frame per line.

    ``dt`` and every ``t`` must be finite numbers and every ``index`` an
    integer; anything else is a SpecSyntaxError, not a silent conversion.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SpecSyntaxError("empty stream document")
    header = load_json(lines[0])
    if not (isinstance(header, dict) and set(header) == {"dt"}):
        raise SpecSyntaxError('stream header must be {"dt": ...}')
    dt = finite_number(header["dt"], "stream header 'dt'")
    frames = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = load_json(line)
        if not (isinstance(obj, dict) and set(obj) <= {"index", "t", "regions"}
                and {"index", "t"} <= set(obj)):
            raise SpecSyntaxError(f"stream line {lineno}: expected index, t, regions")
        index = strict_int(obj["index"], f"stream line {lineno}: 'index'")
        t = finite_number(obj["t"], f"stream line {lineno}: 't'")
        regions = obj.get("regions", [])
        if not isinstance(regions, list):
            raise SpecSyntaxError(f"stream line {lineno}: 'regions' must be a list")
        frames.append(Frame(index, t, tuple(region_from_document(r) for r in regions)))
    return FrameStream(tuple(frames), dt)


def stream_to_jsonl(stream: FrameStream) -> str:
    lines = [json.dumps({"dt": stream.dt})]
    for f in stream.frames:
        lines.append(json.dumps(
            {"index": f.index, "t": f.t, "regions": [region_to_document(r) for r in f.regions]}))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# semi-static filtering


def semi_static_prior(prior, transition, prev_belief, mode: str = "paper") -> np.ndarray:
    """Effective prior for the current frame.

    mode="paper": static prior times the transition-mixed previous posterior,
    normalised.  mode="filter": the transition-mixed previous posterior alone
    (standard forward filtering).  ``transition`` rows are indexed by the
    previous state.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    prior = np.asarray(prior, dtype=float)
    trans = np.asarray(transition, dtype=float)
    prev = np.asarray(prev_belief, dtype=float)
    k = prior.shape[0] if prior.ndim == 1 else 0
    if prior.ndim != 1 or prev.shape != (k,) or trans.shape != (k, k):
        raise ValueError("dimension mismatch between prior, transition and previous belief")
    mixed = prev @ trans
    eff = prior * mixed if mode == "paper" else mixed
    total = eff.sum()
    if total <= 0.0:
        raise ImpossibleEvidenceError(None, "effective prior has zero mass")
    return eff / total


@dataclass(frozen=True, eq=False)
class TemporalModel:
    """Per-frame relational spec plus the hypothesis transition table; valid
    by construction (InvalidNetworkError carries the diagnostics of both)."""

    per_frame: NetworkSpec
    transition: np.ndarray
    mode: str = "paper"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidNetworkError([f"mode must be one of {MODES}"])
        states = self.per_frame.node(self.per_frame.root).states
        trans = np.asarray(self.transition, dtype=float)
        diags = network_diagnostics(self.per_frame)
        k = len(states)
        if trans.shape != (k, k):
            diags.append(f"transition must be {k}x{k} over the hypothesis states")
        else:
            for i, row in enumerate(trans):
                if not np.isfinite(row).all():
                    diags.append(f"transition: non-finite entry (row {i})")
                    continue
                if abs(row.sum() - 1.0) > ROW_SUM_TOL:
                    diags.append(f"transition: row sum {row.sum():g} != 1 (row {i})")
                if ((row < 0) | (row > 1)).any():
                    diags.append(f"transition: entry outside [0,1] (row {i})")
        if diags:
            raise InvalidNetworkError(diags)
        object.__setattr__(self, "transition", normalised_rows(trans))

    @property
    def hypothesis(self) -> str:
        return self.per_frame.root


@dataclass(frozen=True, eq=False)
class FrameBelief:
    index: int
    posterior: np.ndarray
    effective_prior: np.ndarray
    bindings: Mapping[str, str | None]


@dataclass(frozen=True, eq=False)
class BeliefTrace:
    """Per-frame posterior over the hypothesis states."""

    hypothesis: str
    states: tuple[str, ...]
    frames: tuple[FrameBelief, ...]

    def to_jsonl(self) -> str:
        lines = []
        for fb in self.frames:
            lines.append(json.dumps({
                "index": fb.index,
                "posterior": {s: sig10(p) for s, p in zip(self.states, fb.posterior)},
                "effective_prior": {s: sig10(p) for s, p in zip(self.states, fb.effective_prior)},
                "bindings": dict(fb.bindings),
            }))
        return "\n".join(lines) + "\n"


def filter_frames(model: TemporalModel, stream: FrameStream, *,
                  tau: float | None = None, epsilon: float | None = None,
                  ) -> Iterator[tuple[Network, EvidenceSet, FrameBelief]]:
    """Semi-static recognition frame by frame: yields (net, evidence, belief).

    Frame 0 uses the static prior; every later frame replaces the hypothesis
    prior with :func:`semi_static_prior` over the previous posterior.  All
    frames share one Network; ``net.with_root_prior(belief.effective_prior)``
    is a frame's own tree.  This is the scaled forward algorithm: λ at the
    hypothesis does not depend on its prior, so one ``upward`` call gives it
    for all frames and the scan carries k-vectors through ``posterior``,
    bitwise equal to ``propagate`` on each frame's tree.  Errors come in
    stream order.
    """
    if not stream.frames:
        raise StreamValidationError("stream is empty")
    spec = model.per_frame
    net = validate_network(spec)
    static_prior = net.node(spec.root).cpt[0]

    evidence, failure = [], None
    for frame in stream.frames:
        try:
            bound = bind_features(spec, frame.regions)
            ev = relation_evidence(spec, bound, tau=tau, epsilon=epsilon)
            evidence.append((ev, apply_evidence(net, ev).observed, {f: r and r.id for f, r in bound.items()}))
        except (BeliefscopeError, ValueError) as exc:  # raised when the scan gets here
            failure = FrameInferenceError(frame.index, exc) if isinstance(exc, BeliefscopeError) else exc
            break
    lam, _, vanished = upward(net, observation_codes(net, [observed for _, observed, _ in evidence]))

    prev: np.ndarray | None = None
    for i, frame in enumerate(stream.frames):
        eff = (static_prior if prev is None
               else semi_static_prior(static_prior, model.transition, prev, model.mode))
        if i == len(evidence):
            raise failure
        post = posterior(eff / eff.sum(), lam[spec.root][i])
        if np.isnan(post[0]):
            node = vanished[1] if vanished is not None and vanished[0] == i else spec.root
            raise FrameInferenceError(frame.index, ImpossibleEvidenceError(node))
        ev, _, bindings = evidence[i]
        yield net, ev, FrameBelief(frame.index, post, eff, bindings)
        prev = post


def filter_stream(model: TemporalModel, stream: FrameStream, *,
                  tau: float | None = None, epsilon: float | None = None) -> BeliefTrace:
    """Semi-static recognition over a stream: the beliefs of :func:`filter_frames`."""
    root = model.per_frame.node(model.per_frame.root)
    return BeliefTrace(root.id, root.states, tuple(
        belief for _, _, belief in filter_frames(model, stream, tau=tau, epsilon=epsilon)))


# ---------------------------------------------------------------------------
# cross-frame matching and dynamic recognition


def match_regions(prev: Frame, cur: Frame, *, delta: float = DEFAULT_MATCH_DELTA,
                  area_ratio: tuple[float, float] = DEFAULT_AREA_RATIO) -> dict[str, str]:
    """Greedy matching by ascending centroid distance.

    A pair is admissible iff same colour class, area ratio within
    ``area_ratio`` and centroid distance <= ``delta``; each region is matched
    at most once; ties break on the lowest (prev id, cur id) pair.
    """
    candidates = []
    for p in prev.regions:
        for c in cur.regions:
            if p.colour_class != c.colour_class:
                continue
            ratio = c.area / p.area
            if not (area_ratio[0] <= ratio <= area_ratio[1]):
                continue
            d = math.hypot(p.centroid[0] - c.centroid[0], p.centroid[1] - c.centroid[1])
            if d > delta:
                continue
            candidates.append((d, p.id, c.id))
    candidates.sort()
    matched: dict[str, str] = {}
    used_cur: set[str] = set()
    for _, pid, cid in candidates:
        if pid in matched or cid in used_cur:
            continue
        matched[pid] = cid
        used_cur.add(cid)
    return matched


@dataclass(frozen=True, eq=False)
class DynamicModel:
    """Template for window recognition: hypothesis, per-frame presence node,
    and one inter-frame relation node per consecutive pair.

    Valid by construction: InvalidNetworkError carries every diagnostic of
    the fields, then of the template's rows and predicate, each once: they
    are checked on a star with one presence node, bound by the predicate
    (``bound node <feature>_0: ...``), and one relation node over it, which
    is left out while the evaluator has no states.  Node ids must differ in
    every window of up to ``max_window`` frames.
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


def window_spec(model: DynamicModel, k: int) -> NetworkSpec:
    """The tree for a k-frame window: hypothesis -> k presence nodes, each
    bound by the model's predicate, + k-1 relation nodes."""
    presence = [f"{model.feature_id}_{i}" for i in range(k)]
    return _star_spec(model, presence, [(f"{model.relation_id}_{i}_{i + 1}", presence[i],
                                         presence[i + 1]) for i in range(k - 1)])


def _evaluate_frames(model: DynamicModel, frames: Sequence[Frame], window: int | None, *,
                     tau: float | None, epsilon: float | None, delta: float | None,
                     ) -> tuple[int, Network, list[Region | None], list[str | None]]:
    """The window length k, the validated k-frame window network, each frame's
    bound region and each consecutive pair's relation value (None when the
    pair stays unobserved).  Every window slices these lists.

    ``window`` defaults to the model's ``max_window`` and is clamped to the
    number of frames.
    """
    k = window if window is not None else model.max_window
    if k > model.max_window:
        raise StreamValidationError(f"window {k} exceeds max {model.max_window}")
    k = min(k, len(frames))
    if k < 2:
        raise StreamValidationError("window >= 2 required")
    net = validate_network(window_spec(model, k))

    bound = [select_region(model.predicate, f.regions) for f in frames]
    eff_tau = tau if tau is not None else model.params.get("tau", DEFAULT_TAU)
    eff_eps = epsilon if epsilon is not None else model.params.get("epsilon", DEFAULT_EPSILON)
    eff_delta = delta if delta is not None else model.delta
    values: list[str | None] = []
    for i in range(len(frames) - 1):
        a, b = bound[i], bound[i + 1]
        value = None
        if (a is not None and b is not None
                and match_regions(frames[i], frames[i + 1], delta=eff_delta).get(a.id) == b.id):
            value = eval_relation(model.relation_evaluator, a, b, tau=eff_tau, epsilon=eff_eps)
        values.append(value)
    return k, net, bound, values


def _window_evidence(model: DynamicModel, bound: Sequence[Region | None],
                     values: Sequence[str | None]) -> EvidenceSet:
    """Presence nodes observed present/absent; relation nodes only when matched."""
    assignments = {f"{model.feature_id}_{i}": (PRESENT if r is not None else ABSENT)
                   for i, r in enumerate(bound)}
    for i, value in enumerate(values):
        if value is not None:
            assignments[f"{model.relation_id}_{i}_{i + 1}"] = value
    return EvidenceSet(assignments)


def dynamic_windows(model: DynamicModel, frames: Sequence[Frame], window: int | None = None, *,
                    tau: float | None = None, epsilon: float | None = None,
                    delta: float | None = None,
                    ) -> Iterator[tuple[Network, EvidenceSet, FrameBelief]]:
    """Sliding-window dynamic recognition, in order of each window's last
    frame: yields (net, evidence, belief).

    ``window`` defaults to the model's ``max_window`` and is clamped to the
    number of frames.  All windows share one Network (the window's tree, with
    ``evidence`` its clamping); each frame and consecutive pair is evaluated
    once, and one ``upward`` call over slices of their codes gives every
    posterior, bitwise equal to ``propagate`` on the window's tree.  If any
    window is impossible, nothing is yielded: the error names the first such
    window's last frame and where support vanished.
    """
    k, net, bound, values = _evaluate_frames(model, frames, window,
                                             tau=tau, epsilon=epsilon, delta=delta)

    feature = net.node(f"{model.feature_id}_0")
    relation = net.node(f"{model.relation_id}_0_1")
    frame_codes = np.array([feature.state_index(ABSENT if r is None else PRESENT) for r in bound])
    pair_codes = np.array([relation.state_index(v) if v is not None else -1 for v in values])
    # columns in window_spec's node order: hypothesis, presence nodes, relation nodes
    codes = np.hstack([np.full((len(frames) - k + 1, 1), -1), sliding_window_view(frame_codes, k),
                       sliding_window_view(pair_codes, k - 1)])
    lam, _, vanished = upward(net, codes)
    prior = net.node(model.hypothesis_id).cpt[0]
    posteriors = posterior(prior, lam[model.hypothesis_id])
    failed = np.isnan(posteriors).any(axis=1)
    if failed.any():
        start = int(failed.argmax())
        node = vanished[1] if vanished is not None and vanished[0] == start else model.hypothesis_id
        raise FrameInferenceError(frames[start + k - 1].index, ImpossibleEvidenceError(node))

    names = [f"{model.feature_id}_{i}" for i in range(k)]
    ids = [r.id if r is not None else None for r in bound]
    for start, post in enumerate(posteriors):
        ev = _window_evidence(model, bound[start:start + k], values[start:start + k - 1])
        yield net, ev, FrameBelief(frames[start + k - 1].index, post, prior,
                                   dict(zip(names, ids[start:start + k])))


def build_dynamic_window(model: DynamicModel, frames: Sequence[Frame], *,
                         tau: float | None = None, epsilon: float | None = None,
                         delta: float | None = None) -> tuple[Network, EvidenceSet]:
    """Tree over one window: hypothesis -> per-frame presence nodes + relation nodes.

    Presence nodes are observed present/absent from the frame's bound region;
    a relation node is observed only when the bound regions of its two frames
    match across frames, otherwise it stays unobserved.  This is the network
    and evidence of the single window of :func:`dynamic_windows` over exactly
    these frames; nothing is propagated.
    """
    _, net, bound, values = _evaluate_frames(model, frames, len(frames),
                                             tau=tau, epsilon=epsilon, delta=delta)
    return net, _window_evidence(model, bound, values)


def dynamic_trace(model: DynamicModel, stream: FrameStream, *, window: int | None = None,
                  tau: float | None = None, epsilon: float | None = None,
                  delta: float | None = None) -> BeliefTrace:
    """Sliding-window dynamic recognition over a stream: the beliefs of
    :func:`dynamic_windows`, one entry per window, indexed by its last frame."""
    return BeliefTrace(model.hypothesis_id, tuple(model.hypothesis_states), tuple(
        belief for _, _, belief in dynamic_windows(model, stream.frames, window,
                                                   tau=tau, epsilon=epsilon, delta=delta)))


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
    return TemporalModel(spec, np.asarray(rows, dtype=float), doc.get("mode", "paper"))


def semi_static_to_document(model: TemporalModel) -> dict:
    return {
        "type": "semi_static",
        "mode": model.mode,
        "transition": [[float(v) for v in row] for row in model.transition],
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
            hypothesis_states=tuple(hyp["states"]),
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
