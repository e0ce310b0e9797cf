"""Command-line harness.

Subcommands: validate, compile, infer, track, generate, check.  Output
documents go to stdout (or --out), diagnostics to stderr.  Exit codes:
0 success, 1 validation failure, 2 I/O or parse error, 3 impossible
evidence, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from contextlib import nullcontext
from itertools import chain, islice
from operator import sub
from typing import Iterable, Iterator

from .errors import (
    BeliefscopeError,
    EvidenceError,
    FrameInferenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    SpecSyntaxError,
    StreamValidationError,
)
from .network import (
    Network,
    NetworkSpec,
    _build_network,
    apply_evidence,
    check_network,
    evidence_from_document,
    load_json,
    network_spec_from_document,
    network_spec_to_document,
    validate_network,
)

# every module past network and models is imported by the commands that compute with it:
# each module is compiled on every run, and validate and compile need none of them

ORACLE_TOLERANCE = 1e-9

#: characters of a trace held in memory before the rest waits in a temporary file
SPOOL_CHARS = 1 << 20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefscope",
        description="Tree-network inference with relational and temporal recognition.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--model", metavar="NAME", help="builtin model name")
        group.add_argument("--spec", metavar="FILE", help="model document ('-' for stdin)")
        group.add_argument("--rule", metavar="TEXT", help="IF/THEN rule text")

    def add_input_flags(p, scene=True, stream=True):
        group = p.add_mutually_exclusive_group(required=True)
        if scene:
            group.add_argument("--scene", metavar="FILE",
                               help="scene or evidence document ('-' for stdin)")
        if stream:
            group.add_argument("--stream", metavar="FILE",
                               help="frame-stream JSONL ('-' for stdin)")
        group.add_argument("--scenario", metavar="NAME", help="generate the input internally")

    def add_threshold_flags(p):
        p.add_argument("--tau", type=float, metavar="PX", help="adjacency/distance threshold override")
        p.add_argument("--epsilon", type=float, metavar="PX", help="static-displacement threshold override")
        p.add_argument("--delta", type=float, metavar="PX", help="cross-frame matching radius override")

    def add_generation_flags(p):  # _run gives their defaults to a --scenario input only
        p.add_argument("--seed", type=int, metavar="S")
        p.add_argument("--frames", type=int, metavar="N")

    p = sub.add_parser("validate", help="report every diagnostic for a model document")
    add_model_flags(p)

    p = sub.add_parser("compile", help="compile an IF/THEN rule to a model document")
    p.add_argument("--rule", metavar="TEXT", required=True)
    p.add_argument("--defaults", metavar="FILE", help="JSON overrides for the defaults table")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("infer", help="single-scene inference: relationalize + propagate")
    add_model_flags(p)
    add_input_flags(p, stream=False)
    add_threshold_flags(p)
    add_generation_flags(p)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("track", help="filter a stream (semi-static) or slide a window (dynamic)")
    add_model_flags(p)
    add_input_flags(p, scene=False)
    add_threshold_flags(p)
    add_generation_flags(p)
    p.add_argument("--mode", choices=["paper", "filter"], help="semi-static mode override")
    p.add_argument("--window", type=int, metavar="K", help="dynamic window length")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("generate", help="emit a deterministic synthetic frame stream")
    p.add_argument("--scenario", metavar="NAME", required=True)
    add_generation_flags(p)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("check", help="propagate and the printed route vs an independent witness; "
                                     "exit 0 iff they agree")
    add_model_flags(p)
    add_input_flags(p)
    add_threshold_flags(p)
    add_generation_flags(p)
    p.add_argument("--mode", choices=["paper", "filter"])
    p.add_argument("--window", type=int, metavar="K")
    p.add_argument("--out", metavar="FILE")
    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _blocks(path: str) -> Iterator[str]:
    """A stream file ('-' for stdin) in blocks of CHUNK_FRAMES lines: a file
    decoded as UTF-8, stdin in its own encoding, and on both a "\r\n" read as
    "\n", so errors on such lines name the columns of the line without it.  A
    lone "\r" stays, as JSON whitespace, so the same bytes read the same
    through a file and through stdin.  Lines are split at b"\n", which no
    character of UTF-8 or of an 8-bit encoding contains, so each block
    decodes as it does in the whole input, and a decoding error names its
    byte position in the whole input."""
    from . import temporal
    size = temporal.CHUNK_FRAMES
    if path == "-" and not hasattr(sys.stdin, "buffer"):  # a text stream, such as io.StringIO
        while text := "".join(islice(sys.stdin, size)):
            yield text.replace("\r\n", "\n")
        return
    if path == "-":
        source = nullcontext(sys.stdin.buffer)
        encoding, errors = sys.stdin.encoding, sys.stdin.errors
    else:
        source, encoding, errors = open(path, "rb"), "utf-8", "strict"
    with source as raw:
        offset = 0
        while data := b"".join(islice(raw, size)):
            try:
                text = data.decode(encoding, errors)
            except UnicodeDecodeError as exc:
                raise _decode_error(exc, offset) from None
            offset += len(data)
            del data
            yield text.replace("\r\n", "\n")
            del text


def _decode_error(exc: UnicodeDecodeError, offset: int) -> ValueError:
    """``exc``, raised on bytes ``offset`` bytes into their input, as decoding the
    whole input reports it."""
    start = exc.start + offset
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if exc.end == exc.start + 1
             else f"bytes in position {start}-{exc.end - 1 + offset}")
    return ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _emit(args, parts: Iterable[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _load_model(args):
    if args.rule is not None:
        from .models import compile_rule
        return compile_rule(args.rule)
    if args.model is not None:
        from .models import builtin_model
        return builtin_model(args.model).model
    doc = load_json(_read(args.spec))
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "semi_static":
        from .models import semi_static_from_document
        return semi_static_from_document(doc)
    if kind == "dynamic":
        from .models import dynamic_from_document
        return dynamic_from_document(doc)
    return network_spec_from_document(doc)


def _chunks(args) -> Iterator:
    """The input stream's frames: CHUNK_FRAMES at a time from ``--stream``
    (:func:`~beliefscope.temporal.read_stream`), as one chunk from ``--scenario``."""
    if args.scenario is not None:
        from .endoscopy import generate_stream
        return iter([generate_stream(args.scenario, args.frames, seed=args.seed).frames])
    if args.stream is None:
        raise SpecSyntaxError("this model needs a stream input (--stream or --scenario)")
    from .temporal import read_stream
    return read_stream(_blocks(args.stream))


def _batches(args, model) -> Iterator[tuple]:
    """(net, codes, trace) per chunk of the input stream, through the route of the
    model's kind; a single-scene model's frames have no trace.

    After an evaluation error the rest of the stream is still read, so an error
    of the stream itself, anywhere in it, is raised first, as when the whole
    stream was read before anything was evaluated."""
    from .models import DynamicModel, TemporalModel
    from .temporal import dynamic_chunks, filter_chunks
    chunks = _chunks(args)
    if isinstance(model, TemporalModel):
        batches = filter_chunks(_with_mode(model, args.mode), chunks,
                                tau=args.tau, epsilon=args.epsilon)
    elif isinstance(model, DynamicModel):
        batches = dynamic_chunks(model, chunks, args.window, tau=args.tau,
                                 epsilon=args.epsilon, delta=args.delta)
    else:
        batches = _scene_rows(args, model, chunks)
    try:
        yield from batches
    except (BeliefscopeError, ValueError):
        for _ in chunks:
            pass
        raise


def _scene_rows(args, spec: NetworkSpec, chunks) -> Iterator[tuple]:
    """(net, codes, None) per chunk: a single-scene spec's code row for each frame."""
    from .propagation import observation_codes
    from .relational import relation_evidence
    from .temporal import bind_frame
    net = validate_network(spec)
    for frames in chunks:
        yield net, observation_codes(net, [
            relation_evidence(spec, bind_frame(spec, frame), tau=args.tau, epsilon=args.epsilon)
            for frame in frames]), None


def _kind(model) -> str:
    """"single-scene", "semi-static" or "dynamic": a spec's kind is known without loading
    the models code, so that infer and check on a spec do not load it."""
    if isinstance(model, NetworkSpec):
        return "single-scene"
    from .models import TemporalModel
    return "semi-static" if isinstance(model, TemporalModel) else "dynamic"


def _misapplied_flag(args, model) -> str | None:
    """The message for ``--mode``, ``--window``, ``--delta``, ``--tau`` or ``--epsilon``
    on a model that has no use for it, else None."""
    kind = _kind(model)
    spec = model if kind == "single-scene" else model.per_frame if kind == "semi-static" else None
    for flag, owner in (("mode", "semi-static"), ("window", "dynamic"), ("delta", "dynamic")):
        if getattr(args, flag, None) is not None and kind != owner:  # infer has no --mode, --window
            return f"--{flag} applies to {owner} models only, not to a {kind} model"
    evaluators = ({model.relation_evaluator} if spec is None
                  else {n.evaluator for n in spec.nodes if n.kind == "relation"})
    for flag, readers in (("tau", {"adjacent", "distance"}), ("epsilon", {"static"})):
        if getattr(args, flag, None) is not None and not readers & evaluators:
            return f"--{flag} applies to {' and '.join(sorted(readers))} relations only; this model has none"
    return None


def _scene_inputs(args, spec: NetworkSpec):
    """(net, evidence) for a scene, evidence document, or generated scenario."""
    if args.scene is None:  # a scenario's frame 0, the same for every --frames >= 1
        from .endoscopy import generate_stream
        from .relational import relationalize
        frame = generate_stream(args.scenario, min(args.frames, 1), seed=args.seed).frames[0]
        return relationalize(spec, frame.regions, tau=args.tau, epsilon=args.epsilon)
    doc = load_json(_read(args.scene))
    if isinstance(doc, dict) and "assignments" in doc:
        net, ev = validate_network(spec), evidence_from_document(doc)
        for name in ("tau", "epsilon"):  # no relation is evaluated
            if getattr(args, name) is not None:
                raise SpecSyntaxError(f"--{name} applies to scenes and streams only, not to an evidence document")
        return net, ev
    from .relational import relationalize, scene_from_document
    return relationalize(spec, scene_from_document(doc), tau=args.tau, epsilon=args.epsilon)


def _with_mode(model, mode: str | None):
    """A semi-static model in ``mode``, if given."""
    from .models import TemporalModel
    if mode is None or mode == model.mode:
        return model
    return TemporalModel(model.per_frame, model.transition, mode)


def _cmd_validate(args) -> int:
    model = _load_model(args)  # temporal and dynamic models are checked on construction
    if isinstance(model, NetworkSpec):
        check_network(model)
    print("ok", file=sys.stderr)
    return 0


def _cmd_compile(args) -> int:
    defaults = None
    if args.defaults:
        defaults = load_json(_read(args.defaults))
        if not isinstance(defaults, dict):
            raise SpecSyntaxError("defaults document must be a JSON object")
    from .models import compile_rule, dynamic_to_document
    model = compile_rule(args.rule, defaults)
    if isinstance(model, NetworkSpec):
        check_network(model)
        doc = network_spec_to_document(model)
    else:
        doc = dynamic_to_document(model)
    _emit(args, [json.dumps(doc, indent=2) + "\n"])
    return 0


def _cmd_infer(args) -> int:
    model = _load_model(args)
    message = _misapplied_flag(args, model)
    if message is None and not isinstance(model, NetworkSpec):
        message = "infer requires a single-scene (relational) model; use track for temporal models"
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    from .propagation import propagate
    net, ev = _scene_inputs(args, model)
    _emit(args, [propagate(apply_evidence(net, ev)).to_json()])
    return 0


def _cmd_track(args) -> int:
    """Write the trace of a temporal or dynamic model over the stream, made chunk
    by chunk and written once the whole stream has gone through, so that an error
    anywhere writes nothing."""
    model = _load_model(args)
    message = _misapplied_flag(args, model)
    if message is None and isinstance(model, NetworkSpec):
        for _ in _chunks(args):  # the stream's own errors come first
            pass
        message = "track requires a temporal or dynamic model; use infer for single scenes"
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    import tempfile
    # the whole trace is made before --out is opened; past SPOOL_CHARS it waits on disk
    with tempfile.SpooledTemporaryFile(SPOOL_CHARS, "w+", encoding="utf-8", newline="") as spool:
        for _, _, trace in _batches(args, model):
            spool.write(trace.to_jsonl())
        spool.seek(0)
        _emit(args, iter(lambda: spool.read(1 << 13), ""))
    return 0


def _cmd_generate(args) -> int:
    from .endoscopy import generate_stream
    from .temporal import stream_to_jsonl
    stream = generate_stream(args.scenario, args.frames, seed=args.seed)
    _emit(args, [stream_to_jsonl(stream)])
    return 0


def _rows_to_check(args, model) -> Iterator[tuple]:
    """(net, codes, trace) per batch of the rows the witness comparison runs over: the
    network, a code row per frame, window or scene, and the beliefs ``track`` prints, or
    None.  A semi-static frame's tree is the per-frame tree with the frame's effective
    prior at the root, so its rows go on that tree with a flat hypothesis prior, built once
    and valid by construction.  A stream gives a batch per chunk (:func:`_batches`)."""
    from .propagation import observation_codes
    if isinstance(model, NetworkSpec) and args.scene is not None:
        net, ev = _scene_inputs(args, model)  # apply_evidence names a file's unknown labels
        yield net, observation_codes(net, [apply_evidence(net, ev).observed]), None
        return
    flat = None
    if _kind(model) == "semi-static":
        spec = model.per_frame
        flat = _build_network(spec.with_root_prior([1.0] * len(spec.node(spec.root).states)))
    for net, codes, trace in _batches(args, model):
        yield flat or net, codes, trace


def _residual(net: Network, codes: list[tuple[int, ...]], roots: dict[tuple, tuple]) -> float:
    """The largest difference, over the code rows not yet in ``roots``, between
    :func:`downward` and the witness (:func:`~beliefscope.witness.marginals`) on every
    marginal.  The distinct new rows go, in first-seen order, as one batch through
    ``downward`` and then as one batch through the witness, so an impossible row raises
    what ``downward`` raises on the first such row; the two are compared node by node,
    each over every row at once.  ``roots`` keeps each row's witness hypothesis
    marginal."""
    from .propagation import downward
    from .witness import marginals
    rows = [row for row in dict.fromkeys(codes) if row not in roots]
    if not rows:
        return 0.0
    fast, slow = downward(net, rows), marginals(net, rows)
    roots.update(zip(rows, slow[net.root]))
    return max([max(map(abs, map(sub, chain.from_iterable(fast[nid]), chain.from_iterable(vecs))))
                for nid, vecs in slow.items()])


def _cmd_check(args) -> int:
    """Compare the kernel's :func:`~beliefscope.propagation.downward` with the witness
    (:mod:`~beliefscope.witness`) on every distinct code row, and the posterior ``track``
    prints for each frame or window with the witness's hypothesis marginal; print the
    largest difference.

    Every route gives one Network and a code row per frame or window, the rows
    ``track`` itself propagates, a batch per chunk of a stream
    (:func:`_rows_to_check`).  Each chunk's code rows not seen before go, in first-seen
    order, as one batch through ``downward`` and then through the witness
    (:func:`_residual`); the witness's results are kept for the whole stream, as most
    frames and windows repeat an evidence set.  A semi-static frame's row goes on the
    flat-prior tree, where the hypothesis marginal is the frame's normalised likelihood,
    so its printed posterior is compared with that marginal times the printed effective
    prior, normalised.  Every frame or window still counts in ``over N network(s)``.  A
    kernel error is raised after the whole stream, so an error ``track`` raises on a later
    frame comes first.  The line still reads "propagate - enumeration", as the
    benchmark's oracle parses it.
    """
    from .propagation import sig10
    model = _load_model(args)
    message = _misapplied_flag(args, model)
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    semi_static = _kind(model) == "semi-static"
    roots: dict[tuple, tuple] = {}
    worst, count, failure = 0.0, 0, None
    for net, codes, trace in _rows_to_check(args, model):
        count += len(codes)
        if failure is None and len(codes):
            try:
                worst = max(worst, _residual(net, codes, roots))
            except ImpossibleEvidenceError as exc:
                failure = exc
        if failure is None and trace is not None:
            for belief, row in zip(trace.frames, codes):
                root = roots[row]
                if semi_static:  # the effective prior times the frame's likelihood, normalised
                    bel = [p * q for p, q in zip(belief.effective_prior, root)]
                    total = math.fsum(bel)
                    root = [b / total for b in bel] if total else [math.inf] * len(bel)
                worst = max([worst] + [abs(a - b) for a, b in zip(belief.posterior, root)])
    if failure is not None:
        raise failure
    _emit(args, [f"max |propagate - enumeration| = {sig10(worst):.10g} over {count} network(s)\n"])
    if worst >= ORACLE_TOLERANCE:
        print(f"oracle mismatch: {worst:.3e} >= {ORACLE_TOLERANCE:.0e}", file=sys.stderr)
        return 4
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "compile": _cmd_compile,
    "infer": _cmd_infer,
    "track": _cmd_track,
    "generate": _cmd_generate,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command leaves a bounded amount of cyclic garbage (argparse's own),
    whatever the size of its input, while collector passes triggered by the
    input's allocations would walk every parsed region again.  The
    collector's state on entry is restored on every exit.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    for name in ("tau", "epsilon", "delta"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < math.inf:
            print(f"--{name} must be a finite, strictly positive number", file=sys.stderr)
            return 2
    for name, default in (("seed", 0), ("frames", 5)):  # they shape a --scenario input only
        value = getattr(args, name, None)
        if getattr(args, "scenario", None) is not None:
            setattr(args, name, default if value is None else value)
        elif value is not None:
            source = "stream" if getattr(args, "stream", None) is not None else "scene"
            print(f"--{name} applies to --scenario input only, not to --{source}", file=sys.stderr)
            return 2
    if getattr(args, "frames", None) is not None and args.frames > sys.maxsize:  # no list is longer
        print(f"--frames must be at most {sys.maxsize}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except FrameInferenceError as exc:
        print(exc, file=sys.stderr)
        return 3 if isinstance(exc.cause, ImpossibleEvidenceError) else 1
    except ImpossibleEvidenceError as exc:
        print(exc, file=sys.stderr)
        return 3
    except InvalidNetworkError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return 1
    except (EvidenceError, StreamValidationError) as exc:
        print(exc, file=sys.stderr)
        return 1
    except (SpecSyntaxError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except BeliefscopeError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
