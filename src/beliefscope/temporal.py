"""Temporal recognition over frame streams.

Semi-static filtering rolls each frame's posterior into the next frame's
prior through a transition table; dynamic recognition puts each window of
frames under the hypothesis as a star, with a per-frame presence node and an
inter-frame relation node per consecutive matched pair.

Both take a stream as chunks of frames (:func:`filter_chunks`, :func:`dynamic_chunks`) and
give one batch ``(net, codes, trace)`` per chunk: the Network all frames or windows share,
a code row per frame or window (:func:`~beliefscope.propagation.observation_codes`), the
only evidence form past binding, and the beliefs ``track`` prints.  The models and their
documents are defined in :mod:`beliefscope.models`, which imports no numpy.

Both scans run on Python floats, and a belief's vectors are float tuples: the transition
mixing and every normalisation sum with :func:`math.fsum`, the exact sum rounded once, so
a trace's bits depend on no BLAS kernel and no Python version.  Nothing here imports
numpy, nor does :mod:`beliefscope.relational`, whose masks are int bitsets.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import contains, itemgetter, mul
from typing import Collection, Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import (
    BeliefscopeError,
    FrameInferenceError,
    ImpossibleEvidenceError,
    SpecSyntaxError,
    StreamValidationError,
)
from .models import DEFAULT_MATCH_DELTA, DynamicModel, TemporalModel, _window_ids, window_spec
from .models import dynamic_to_document  # read from here by bench/run.py and bench/tests/test_oracle.py
from .network import (
    ABSENT,
    FEATURE_STATES,
    PRESENT,
    RELATION_STATES,
    _DICT,
    _INT,
    _NUMBER,
    EvidenceSet,
    Network,
    NetworkSpec,
    _build_network,
    _colour_classes,
    finite_number,
    load_json,
    normalised_rows,
    record,
    strict_int,
    validate_network,
)
from .propagation import Row, Vector, observation_codes, posterior, sig10_json, upward
from .relational import (
    DEFAULT_EPSILON,
    DEFAULT_TAU,
    Region,
    RegionTable,
    cut_masks,
    eval_relation,
    region_from_document,
    region_to_document,
    relation_evidence,
    select_region,
)

DEFAULT_AREA_RATIO = (0.5, 2.0)


@record
class Frame:
    """Time-indexed set of regions.

    A frame of a stream read by :func:`parse_stream` keeps its regions as
    rows of its chunk's :class:`RegionTable`: ``regions`` builds them on
    first access and then returns the same tuple, and :meth:`regions_of`
    builds only the rows of the classes it is asked for.
    """

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

    def regions_of(self, classes: Collection[str]) -> tuple[Region, ...]:
        """The regions whose colour class is in ``classes``, in frame order."""
        return tuple(r for r in self.regions if r.colour_class in classes)


class _ColumnFrame(Frame):
    """A frame of a parsed stream: group ``k`` of a :class:`RegionTable`
    whose rows :func:`parse_stream` has checked as :class:`Frame` checks
    them."""

    def __init__(self, index: int, t: float, table: RegionTable, k: int):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_group", (table, k))

    @property
    def regions(self) -> tuple[Region, ...]:
        table, k = self._group
        return table.group(k)

    def regions_of(self, classes: Collection[str]) -> tuple[Region, ...]:
        table, k = self._group
        return table.group(k, classes)


@record
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


#: frame lines decoded and checked at a time by :func:`parse_stream`, and frames read,
#: evaluated and emitted at a time by ``track`` and ``check`` (:func:`read_stream`)
CHUNK_FRAMES = 256


class StreamCursor:
    """Where :func:`parse_stream` stands in a stream read a block of lines at a
    time: the lines read, the header's ``dt``, the last frame's index and time,
    and the stream's first error.

    The error is kept, not raised, until the stream ends, because a later line
    can outrank it just as when the whole stream is parsed at once: the first
    line error wins over a ``dt`` that is not positive, and that over the first
    pair of frames out of order or off the interval.  :meth:`close` raises it.
    """

    def __init__(self):
        self.line = 0
        self.dt: float | None = None
        self.last: Frame | None = None
        self.error: BeliefscopeError | None = None
        self.line_error = False

    def close(self) -> None:
        """Raise the stream's first error, if it has one, or the empty document's."""
        if self.error is not None:
            raise self.error
        if self.dt is None:
            raise SpecSyntaxError("empty stream document")


def parse_stream(text: str, cursor: StreamCursor | None = None) -> FrameStream | None:
    """Parse a JSONL stream: a {"dt": ...} header line then one frame per line.

    Lines end at "\n" only: JSON allows U+2028, U+2029 and U+0085 raw
    inside a string, and a "\r" before the "\n" is JSON whitespace.
    ``dt`` and every ``t`` must be finite numbers and every ``index`` an
    integer; anything else is a SpecSyntaxError, not a silent conversion.
    Blank lines are skipped; errors, a region's and a frame's too, name the
    line of the file.

    Frames are decoded, checked and built :data:`CHUNK_FRAMES` at a time in
    column passes (:func:`_column_frames`); their regions stay columns, built
    into Regions only as they are read (:class:`Frame`).  A chunk the passes
    turn down goes through :func:`_checked_frames`, line by line, which only
    names its first error.

    With a ``cursor``, ``text`` is the next block of whole lines of a stream
    read block by block (:func:`read_stream`): lines are numbered on from the
    cursor's, the header is the stream's first line, and each frame's order and
    interval are checked against the frame before it, across blocks too.  The
    stream's first error stays on the cursor (:class:`StreamCursor`), and the
    block's frames come back while there is none, else None.
    """
    whole = cursor is None
    if whole:
        cursor = StreamCursor()
    first, cursor.line = cursor.line + 1, cursor.line + text.count("\n")
    frames: list[Frame] = []
    lines = [] if cursor.line_error else [
        (lineno, line) for lineno, line in enumerate(text.split("\n"), start=first) if line.strip()]
    if lines:
        try:
            if cursor.dt is None:
                lineno, line = lines.pop(0)
                with _named_line(lineno):
                    header = load_json(line, line=lineno)
                    if not (isinstance(header, dict) and set(header) == {"dt"}):
                        raise SpecSyntaxError('stream header must be {"dt": ...}')
                    cursor.dt = finite_number(header["dt"], "stream header 'dt'")
            for start in range(0, len(lines), CHUNK_FRAMES):
                chunk = lines[start:start + CHUNK_FRAMES]
                frames += _column_frames(chunk) or _checked_frames(chunk)
        except (SpecSyntaxError, StreamValidationError) as exc:  # the first line error outranks all
            cursor.error, cursor.line_error = exc, True
    block = None
    if cursor.error is None and cursor.dt is not None:
        try:
            if cursor.last is not None and frames:
                FrameStream((cursor.last, frames[0]), cursor.dt)
            block = FrameStream(tuple(frames), cursor.dt)
        except StreamValidationError as exc:
            cursor.error = exc
        else:
            if frames:
                cursor.last = Frame(frames[-1].index, frames[-1].t)
    if whole:
        cursor.close()
    return block


def read_stream(blocks: Iterable[str]) -> Iterator[tuple[Frame, ...]]:
    """The frames of a stream given as blocks of whole lines, a block's frames at
    a time (:func:`parse_stream` with a cursor), while the stream has no error so
    far.  After the last block it raises the stream's first error, the one
    parsing the whole stream at once would raise, so a caller that reads every
    block before raising an error of its own keeps that precedence."""
    cursor = StreamCursor()
    for text in blocks:
        block = parse_stream(text, cursor)
        del text  # each block and its frames are dropped before the next is read
        if block is not None and block.frames:
            yield block.frames
        del block
    cursor.close()


_FRAME_FIELDS = (itemgetter("index"), itemgetter("t"))
_SEQUENCE = {list, tuple}  # a frame without "regions" has ()


def _column_frames(lines: Sequence[tuple[int, str]], cut: bool = True) -> list[_ColumnFrame] | None:
    """The frames of numbered stream lines, checked in column passes, or
    None when a line fails one of the checks :func:`_checked_frames` names.

    Lines are decoded one by one and dropped with the chunk; what is kept
    is one :class:`RegionTable` of the chunk's regions and a frame per line.
    Masks as ``json.dumps`` writes them are cut out before decoding
    (:func:`cut_masks`); a chunk whose cuts are refused is decoded again uncut.
    """
    texts = list(map(itemgetter(1), lines))
    texts, cuts = cut_masks(texts) if cut else (texts, [])
    try:
        objs = list(map(load_json, texts, map(itemgetter(0), lines), repeat(bool(cuts))))
    except SpecSyntaxError:
        return None
    if not set(map(type, objs)) <= _DICT:
        return None
    try:
        index, t = (list(map(f, objs)) for f in _FRAME_FIELDS)
    except KeyError:
        return None
    regions = list(map(dict.get, objs, repeat("regions"), repeat(())))
    if (sum(map(len, objs)) != 2 * len(objs) + sum(map(contains, objs, repeat("regions")))
            or not (set(map(type, index)) <= _INT and set(map(type, t)) <= _NUMBER
                    and set(map(type, regions)) <= _SEQUENCE and min(index) >= 0)):
        return None
    try:
        t = list(map(float, t))
    except OverflowError:
        return None
    table = RegionTable.checked(regions, cuts) if all(map(math.isfinite, t)) else None
    if table is None:
        return _column_frames(lines, cut=False) if cuts else None
    return list(map(_ColumnFrame, index, t, repeat(table), range(len(objs))))


@contextmanager
def _named_line(lineno: int) -> Iterator[None]:
    """Name the stream line in an error raised within that has no position of its own:
    a check's, or the decoder's on a repeated key or a NaN or Infinity token."""
    try:
        yield
    except (SpecSyntaxError, StreamValidationError) as exc:
        if getattr(exc, "line", None) is not None:  # a JSON syntax error points into the file
            raise
        raise type(exc)(f"stream line {lineno}: {exc}") from None


def _checked_frames(lines: Sequence[tuple[int, str]]) -> NoReturn:
    """The first error of numbered stream lines :func:`_column_frames` turned
    down, checked one line at a time and raised naming its line."""
    for lineno, line in lines:
        with _named_line(lineno):
            obj = load_json(line, line=lineno)
            if not (isinstance(obj, dict) and set(obj) <= {"index", "t", "regions"}
                    and {"index", "t"} <= set(obj)):
                raise SpecSyntaxError("expected index, t, regions")
            index = strict_int(obj["index"], "'index'")
            t = finite_number(obj["t"], "'t'")
            regions = obj.get("regions", [])
            if not isinstance(regions, list):
                raise SpecSyntaxError("'regions' must be a list")
            Frame(index, t, tuple(map(region_from_document, regions)))
    raise SpecSyntaxError(f"stream line {lines[0][0]}: frames refused without a named error")


def stream_to_jsonl(stream: FrameStream) -> str:
    lines = [json.dumps({"dt": stream.dt})]
    for f in stream.frames:
        lines.append(json.dumps(
            {"index": f.index, "t": f.t, "regions": [region_to_document(r) for r in f.regions]}))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# semi-static filtering


def _mixed_prior(prior: Vector, trans: Sequence[Vector], prev: Vector, paper: bool) -> Vector:
    """A frame's effective prior, on float tuples of matching lengths: the previous posterior
    mixed through ``trans`` (rows indexed by the previous state) as products summed, times
    the static prior in mode "paper" or alone in mode "filter" (standard forward
    filtering), normalised."""
    mixed = [math.fsum(map(mul, prev, column)) for column in zip(*trans)]
    eff = list(map(mul, prior, mixed)) if paper else mixed
    total = math.fsum(eff)
    if total <= 0.0:
        raise ImpossibleEvidenceError(None, "effective prior has zero mass")
    return tuple([e / total for e in eff])


@record
class FrameBelief:
    index: int
    posterior: Vector
    effective_prior: Vector
    bindings: Mapping[str, str | None]


@record
class BeliefTrace:
    """Per-frame posterior over the hypothesis states."""

    hypothesis: str
    states: tuple[str, ...]
    frames: tuple[FrameBelief, ...]

    def to_jsonl(self) -> str:
        """One line per frame, byte for byte the ``json.dumps`` of
        {"index", "posterior", "effective_prior", "bindings"}, laid out here:
        state names are escaped once per trace and binding ids per line by
        the encoder's own escaper, and each probability is written by
        :func:`~beliefscope.propagation.sig10_json`.
        """
        keys = [encode_basestring_ascii(s) + ": " for s in self.states]

        def probabilities(vector: Vector) -> str:
            return ", ".join([k + sig10_json(p) for k, p in zip(keys, vector)])

        lines = []
        prior, prior_text = None, ""  # a dynamic trace's beliefs share one prior tuple
        for fb in self.frames:
            if fb.effective_prior is not prior:
                prior, prior_text = fb.effective_prior, probabilities(fb.effective_prior)
            bindings = ", ".join([encode_basestring_ascii(f) + ": "
                                  + ("null" if r is None else encode_basestring_ascii(r))
                                  for f, r in fb.bindings.items()])
            lines.append(f'{{"index": {fb.index}, "posterior": {{{probabilities(fb.posterior)}}}, '
                         f'"effective_prior": {{{prior_text}}}, "bindings": {{{bindings}}}}}')
        return "\n".join(lines) + "\n"


def bind_frame(spec: NetworkSpec, frame: Frame) -> dict[str, Region | None]:
    """Each feature predicate's region per :func:`~beliefscope.relational.select_region`,
    reading only the frame's regions of the colour classes the predicate admits."""
    return {fid: select_region(pred, frame.regions_of(_colour_classes(pred)))
            for fid, pred in spec.bind.items()}


def filter_chunks(model: TemporalModel, chunks: Iterable[Sequence[Frame]], *,
                  tau: float | None = None, epsilon: float | None = None,
                  ) -> Iterator[tuple[Network, list[Row], BeliefTrace]]:
    """Semi-static recognition over a stream given as chunks of frames, one
    batch (net, codes, trace) per chunk: a code row and a belief per frame.

    Frame 0 uses the static prior; every later frame replaces the hypothesis
    prior with :func:`_mixed_prior` over the previous posterior.  All
    frames share the model's Network; a frame's own tree is the per-frame spec
    with its belief's ``effective_prior`` as the root's prior.  This is the scaled
    forward algorithm: λ at the hypothesis does not depend on its prior, so one
    ``upward`` call per chunk gives it for the chunk's frames, and the scan
    carries only the previous posterior, from chunk to chunk too, through
    :func:`~beliefscope.propagation.posterior`, bitwise equal to ``propagate`` on
    each frame's tree.
    Errors come in stream order.
    """
    spec, net = model.per_frame, validate_network(model.per_frame)
    root = net.node(spec.root)
    static, paper, transition = root.cpt[0], model.mode == "paper", normalised_rows(model.transition)
    prev = None  # the previous frame's posterior
    for frames in chunks:
        if not frames:
            continue
        observed, bindings, failure = [], [], None
        for frame in frames:
            try:
                bound = bind_frame(spec, frame)
                observed.append(relation_evidence(spec, bound, tau=tau, epsilon=epsilon))
            except (BeliefscopeError, ValueError) as exc:  # raised when the scan gets here
                failure = FrameInferenceError(frame.index, exc) if isinstance(exc, BeliefscopeError) else exc
                break
            bindings.append({f: r and r.id for f, r in bound.items()})
        codes = observation_codes(net, observed)
        lam, vanished = upward(net, codes)
        beliefs: list[FrameBelief] = []
        for i, frame in enumerate(frames):
            eff = _mixed_prior(static, transition, prev, paper) if prev is not None else static
            if i == len(observed):
                raise failure
            total = math.fsum(eff)
            prev = posterior([e / total for e in eff], lam[i])
            if prev is None:
                raise FrameInferenceError(frame.index, ImpossibleEvidenceError(vanished[i] or spec.root))
            beliefs.append(FrameBelief(frame.index, prev, eff, bindings[i]))
        if beliefs:
            yield net, codes, BeliefTrace(root.id, root.states, tuple(beliefs))
        del frames, frame, observed, bindings, beliefs  # dropped before the next chunk is read
    if prev is None:
        raise StreamValidationError("stream is empty")


# kept for the demos and bench/tracing.py
def filter_stream(model: TemporalModel, stream: FrameStream, *,
                  tau: float | None = None, epsilon: float | None = None) -> BeliefTrace:
    """Semi-static recognition over a stream: the trace of :func:`filter_chunks` over
    the stream as one chunk."""
    return next(filter_chunks(model, [stream.frames], tau=tau, epsilon=epsilon))[2]


# ---------------------------------------------------------------------------
# cross-frame matching and dynamic recognition


# kept for bench/tracing.py
def match_regions(prev: Frame, cur: Frame, *, delta: float = DEFAULT_MATCH_DELTA) -> dict[str, str]:
    """Greedy matching by ascending centroid distance.

    A pair is admissible iff same colour class, area ratio within
    :data:`DEFAULT_AREA_RATIO` and centroid distance <= ``delta``; each region is matched
    at most once; ties break on the lowest (prev id, cur id) pair.  No pair
    crosses colour classes, so this is the union of the independent
    matchings of each class (:func:`_class_matching`).
    """
    matched: dict[str, str] = {}
    for colour in dict.fromkeys(p.colour_class for p in prev.regions):
        matched.update(_class_matching([p for p in prev.regions if p.colour_class == colour],
                                       [c for c in cur.regions if c.colour_class == colour],
                                       delta))
    return matched


def _class_matching(prev: Sequence[Region], cur: Sequence[Region], delta: float) -> dict[str, str]:
    """:func:`match_regions` over regions that all share one colour class."""
    low, high = DEFAULT_AREA_RATIO
    candidates = []
    for p in prev:
        for c in cur:
            ratio = c.area / p.area
            if not (low <= ratio <= high):
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


def _window_codes(model: DynamicModel, chunks: Iterable[Sequence[Frame]], window: int | None, *,
                  tau: float | None, epsilon: float | None, delta: float | None,
                  ) -> Iterator[tuple[int, Network, list[Row], list[int], list[str | None]]]:
    """Per chunk of frames: the window length k (``window``, else
    ``max_window``, clamped to the number of frames when the whole stream is
    shorter), the k-frame window network, a code row per window whose last frame
    is in the chunk, and the index and bound region id of each frame those
    windows span.  Each frame and consecutive pair is evaluated once: presence
    nodes are observed present/absent, relation nodes only when the pair's bound
    regions match.  Only the last k-1 frames' codes and bound ids and the last
    frame's bound region and same-class regions cross a chunk boundary.  The
    window's tree is valid by the model's construction for every k <=
    ``max_window``, so it is built unchecked."""
    k = window if window is not None else model.max_window
    if k > model.max_window:
        raise StreamValidationError(f"window {k} exceeds max {model.max_window}")
    if k < 2:
        raise StreamValidationError("window >= 2 required")
    # binding and matching read only the regions of the colour classes the predicate admits
    admitted = _colour_classes(model.predicate)
    eff_tau = tau if tau is not None else model.params.get("tau", DEFAULT_TAU)
    eff_eps = epsilon if epsilon is not None else model.params.get("epsilon", DEFAULT_EPSILON)
    eff_delta = delta if delta is not None else model.delta
    present, absent = FEATURE_STATES.index(PRESENT), FEATURE_STATES.index(ABSENT)
    relation_code = {state: i for i, state in enumerate(RELATION_STATES[model.relation_evaluator])}
    indices: list[int] = []
    ids: list[str | None] = []
    frame_codes: list[int] = []
    pair_codes: list[int] = []
    links = []  # the last frame's bound region and the regions of its colour class
    net = None
    for frames in chunks:
        candidates = [f.regions_of(admitted) for f in frames]
        bound = [select_region(model.predicate, regions) for regions in candidates]
        # a bound pair can only match within its colour class, whose matching no other class affects
        links += [(b, [r for r in regions if b is not None and r.colour_class == b.colour_class])
                  for regions, b in zip(candidates, bound)]
        for (a, a_class), (b, b_class) in zip(links, links[1:]):
            code = -1
            if (a is not None and b is not None and a.colour_class == b.colour_class
                    and _class_matching(a_class, b_class, eff_delta).get(a.id) == b.id):
                code = relation_code[eval_relation(model.relation_evaluator, a, b,
                                                   tau=eff_tau, epsilon=eff_eps)]
            pair_codes.append(code)
        del links[:-1]
        frame_codes += [absent if r is None else present for r in bound]
        ids += [r.id if r is not None else None for r in bound]
        indices += [f.index for f in frames]
        if len(frame_codes) >= k:
            if net is None:
                net = _build_network(window_spec(model, k))
            yield k, net, _windows(frame_codes, pair_codes, k), indices[:], ids[:]
            for carried, keep in ((frame_codes, k - 1), (ids, k - 1), (indices, k - 1),
                                  (pair_codes, k - 2)):
                del carried[:len(carried) - keep]
        del frames, candidates, bound  # dropped before the next chunk is read
    if net is None:  # the whole stream is shorter than a window: one window over all of it
        k = len(frame_codes)
        if k < 2:
            raise StreamValidationError("window >= 2 required")
        net = _build_network(window_spec(model, k))
        yield k, net, _windows(frame_codes, pair_codes, k), indices, ids


def _windows(frame_codes: Sequence[int], pair_codes: Sequence[int], k: int) -> list[Row]:
    """The code row of every k-frame window over consecutive frames' presence codes and
    consecutive pairs' relation codes, in window_spec's node order: hypothesis, presence
    nodes, relation nodes."""
    return [(-1, *frame_codes[i:i + k], *pair_codes[i:i + k - 1])
            for i in range(len(frame_codes) - k + 1)]


def dynamic_chunks(model: DynamicModel, chunks: Iterable[Sequence[Frame]],
                   window: int | None = None, *, tau: float | None = None,
                   epsilon: float | None = None, delta: float | None = None,
                   ) -> Iterator[tuple[Network, list[Row], BeliefTrace]]:
    """Sliding-window dynamic recognition over a stream given as chunks of
    frames, one batch (net, codes, trace) per chunk: a code row and a belief per
    window whose last frame is in the chunk, in order of that frame.

    ``window`` defaults to the model's ``max_window`` and is clamped to the
    number of frames.  All windows share one Network, the window's tree; one
    ``upward`` call per chunk over the code rows (:func:`_window_codes`) gives
    its posteriors, bitwise equal to ``propagate`` on the window's tree.  If a
    window is impossible, the error names the first such window's last frame
    and where support vanished.
    """
    hyp = model.hypothesis_id
    for k, net, codes, indices, ids in _window_codes(model, chunks, window, tau=tau,
                                                     epsilon=epsilon, delta=delta):
        lam, vanished = upward(net, codes)
        prior = net.node(hyp).cpt[0]
        normalised: dict[Vector, Vector | None] = {}  # λ rows repeat as code rows do
        for row in lam:
            if row not in normalised:
                normalised[row] = posterior(prior, row)
        posteriors = list(map(normalised.__getitem__, lam))
        if None in posteriors:
            start = posteriors.index(None)
            raise FrameInferenceError(indices[start + k - 1],
                                      ImpossibleEvidenceError(vanished[start] or hyp))
        presence = _window_ids(model, k)[0]
        yield net, codes, BeliefTrace(hyp, tuple(model.hypothesis_states), tuple(
            FrameBelief(indices[start + k - 1], post, prior, dict(zip(presence, ids[start:start + k])))
            for start, post in enumerate(posteriors)))


# kept for the demos and bench/tracing.py
def build_dynamic_window(model: DynamicModel, frames: Sequence[Frame], *,
                         tau: float | None = None, epsilon: float | None = None,
                         delta: float | None = None) -> tuple[Network, EvidenceSet]:
    """Tree over one window: hypothesis -> per-frame presence nodes + relation nodes.

    Presence nodes are observed present/absent from the frame's bound region;
    a relation node is observed only when the bound regions of its two frames
    match across frames, otherwise it stays unobserved.  This is the network
    and the code row, read back as evidence, of the single window of
    :func:`dynamic_chunks` over exactly these frames; nothing is propagated.
    """
    _, net, codes, _, _ = next(_window_codes(model, [frames], len(frames),
                                             tau=tau, epsilon=epsilon, delta=delta))
    return net, EvidenceSet({node.id: node.states[c] for node, c in zip(net.nodes, codes[0])
                             if c >= 0})


# kept for the demos and bench/tracing.py
def dynamic_trace(model: DynamicModel, stream: FrameStream, *, window: int | None = None,
                  tau: float | None = None, epsilon: float | None = None,
                  delta: float | None = None) -> BeliefTrace:
    """Sliding-window dynamic recognition over a stream: the trace of :func:`dynamic_chunks`
    over the stream as one chunk, one entry per window, indexed by its last frame."""
    return next(dynamic_chunks(model, [stream.frames], window, tau=tau, epsilon=epsilon,
                               delta=delta))[2]
