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

import numpy as np

from .errors import (
    BeliefscopeError,
    EvidenceError,
    FrameInferenceError,
    ImpossibleEvidenceError,
    InvalidNetworkError,
    SpecSyntaxError,
    StateSpaceCapError,
    StreamValidationError,
)
from .network import (
    Network,
    NetworkSpec,
    apply_evidence,
    evidence_from_document,
    load_json,
    network_spec_from_document,
    network_spec_to_document,
    validate_network,
)
from .propagation import downward, enumerate_beliefs, observation_codes, propagate, sig10

# relational, temporal and endoscopy are imported by the commands that use them: each module
# is compiled on every run, and infer and validate on a network spec need none of them

ORACLE_TOLERANCE = 1e-9


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

    def add_generation_flags(p):
        p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--frames", type=int, default=5, metavar="N")

    p = sub.add_parser("validate", help="report every diagnostic for a model document")
    add_model_flags(p)
    p.add_argument("--out", metavar="FILE")

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

    p = sub.add_parser("check", help="propagate and the printed route vs joint enumeration; "
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


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_model(args):
    if args.rule is not None:
        from .endoscopy import compile_rule
        return compile_rule(args.rule)
    if args.model is not None:
        from .endoscopy import builtin_model
        return builtin_model(args.model).model
    doc = load_json(_read(args.spec))
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "semi_static":
        from .temporal import semi_static_from_document
        return semi_static_from_document(doc)
    if kind == "dynamic":
        from .temporal import dynamic_from_document
        return dynamic_from_document(doc)
    return network_spec_from_document(doc)


def _load_stream(args):
    from .endoscopy import generate_stream
    from .temporal import parse_stream
    if args.scenario is not None:
        return generate_stream(args.scenario, args.frames, seed=args.seed)
    if args.stream is None:
        raise SpecSyntaxError("this model needs a stream input (--stream or --scenario)")
    return parse_stream(_read(args.stream))


def _scene_inputs(args, spec: NetworkSpec):
    """(net, evidence) for a scene, evidence document, or generated scenario."""
    if args.scene is None:
        from .relational import relationalize
        return relationalize(spec, _load_stream(args).frames[0].regions,
                             tau=args.tau, epsilon=args.epsilon)
    doc = load_json(_read(args.scene))
    if isinstance(doc, dict) and "assignments" in doc:
        return validate_network(spec), evidence_from_document(doc)
    from .relational import relationalize, scene_from_document
    return relationalize(spec, scene_from_document(doc), tau=args.tau, epsilon=args.epsilon)


def _with_mode(model, mode: str | None):
    """A semi-static model in ``mode``, if given."""
    from .temporal import TemporalModel
    if mode is None or mode == model.mode:
        return model
    return TemporalModel(model.per_frame, model.transition, mode)


def _cmd_validate(args) -> int:
    model = _load_model(args)  # temporal and dynamic models are checked on construction
    if isinstance(model, NetworkSpec):
        validate_network(model)
    print("ok", file=sys.stderr)
    return 0


def _cmd_compile(args) -> int:
    defaults = None
    if args.defaults:
        defaults = load_json(_read(args.defaults))
        if not isinstance(defaults, dict):
            raise SpecSyntaxError("defaults document must be a JSON object")
    from .endoscopy import compile_rule
    from .temporal import dynamic_to_document
    model = compile_rule(args.rule, defaults)
    if isinstance(model, NetworkSpec):
        validate_network(model)
        doc = network_spec_to_document(model)
    else:
        doc = dynamic_to_document(model)
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_infer(args) -> int:
    model = _load_model(args)
    if not isinstance(model, NetworkSpec):
        print("infer requires a single-scene (relational) model; use track for temporal models",
              file=sys.stderr)
        return 2
    net, ev = _scene_inputs(args, model)
    _emit(args, propagate(apply_evidence(net, ev)).to_json())
    return 0


def _cmd_track(args) -> int:
    from .temporal import DynamicModel, TemporalModel, dynamic_trace, filter_stream
    model = _load_model(args)
    stream = _load_stream(args)
    if isinstance(model, TemporalModel):
        trace = filter_stream(_with_mode(model, args.mode), stream,
                              tau=args.tau, epsilon=args.epsilon)
    elif isinstance(model, DynamicModel):
        trace = dynamic_trace(model, stream, window=args.window,
                              tau=args.tau, epsilon=args.epsilon, delta=args.delta)
    else:
        print("track requires a temporal or dynamic model; use infer for single scenes",
              file=sys.stderr)
        return 2
    _emit(args, trace.to_jsonl())
    return 0


def _cmd_generate(args) -> int:
    from .endoscopy import generate_stream
    from .temporal import stream_to_jsonl
    stream = generate_stream(args.scenario, args.frames, seed=args.seed)
    _emit(args, stream_to_jsonl(stream))
    return 0


def _rows_to_check(args, model):
    """(net, codes, priors, printed): a code row per network the oracle comparison runs over,
    each row's root prior replacing the network's own (a semi-static frame's effective
    prior) and the hypothesis posterior ``track`` prints for each, or None for either."""
    from .relational import relation_evidence
    from .temporal import TemporalModel, bind_frame, dynamic_windows, filter_frames
    if isinstance(model, NetworkSpec):
        if args.scene is not None:
            net, ev = _scene_inputs(args, model)  # apply_evidence names a file's unknown labels
            return net, observation_codes(net, [apply_evidence(net, ev).observed]), None, None
        stream, net = _load_stream(args), validate_network(model)
        return net, observation_codes(net, [
            relation_evidence(model, bind_frame(model, frame), tau=args.tau, epsilon=args.epsilon)
            for frame in stream.frames]), None, None
    stream = _load_stream(args)
    if isinstance(model, TemporalModel):
        net, codes, trace = filter_frames(_with_mode(model, args.mode), stream,
                                          tau=args.tau, epsilon=args.epsilon)
        priors = np.array([belief.effective_prior for belief in trace.frames])
    else:
        net, codes, trace = dynamic_windows(model, stream.frames, args.window, tau=args.tau,
                                            epsilon=args.epsilon, delta=args.delta)
        priors = None
    return net, codes, priors, np.array([belief.posterior for belief in trace.frames])


def _residual(net: Network, codes: np.ndarray, priors: np.ndarray | None,
              printed: np.ndarray | None, rows: np.ndarray) -> float:
    """The largest difference over distinct code rows between :func:`downward` and
    :func:`enumerate_beliefs` on every marginal, and between each printed posterior and the
    oracle's hypothesis marginal of its row, ``rows`` giving each printed posterior's row."""
    try:
        fast = downward(net, codes, priors)
        slow = enumerate_beliefs(net, codes, priors)
    except (ImpossibleEvidenceError, StateSpaceCapError):
        # raise what comparing row by row raises first, propagate before enumeration
        for row in range(len(codes)):
            alone = None if priors is None else priors[row:row + 1]
            downward(net, codes[row:row + 1], alone)
            enumerate_beliefs(net, codes[row:row + 1], alone)
        raise
    worst = max(float(np.abs(fast[nid] - slow[nid]).max()) for nid in slow)
    if printed is not None:
        worst = max(worst, float(np.abs(printed - slow[net.root][rows]).max()))
    return worst


def _cmd_check(args) -> int:
    """Compare propagate with the enumeration oracle on every instantiated
    network, and the posterior ``track`` prints for each frame or window
    with the oracle's hypothesis marginal; print the largest difference.

    Every route gives one Network and a code row per frame or window, the rows
    ``track`` itself propagates.  Both kernels are deterministic, so each
    distinct (code row, root prior) goes once, in first-seen order, through one
    call of each: most windows repeat an evidence set, and a semi-static frame's
    tree is the Network under its effective prior.  Every frame or window still
    counts in ``over N network(s)``.
    """
    net, codes, priors, printed = _rows_to_check(args, _load_model(args))
    slots: dict[bytes, int] = {}  # each distinct (code row, prior), by its bytes
    rows = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in
                     (codes if priors is None else np.hstack([codes, priors]))], dtype=np.intp)
    first = np.unique(rows, return_index=True)[1]  # each distinct row's first frame or window
    worst = 0.0 if not len(codes) else _residual(
        net, codes[first], None if priors is None else priors[first], printed, rows)
    _emit(args, f"max |propagate - enumeration| = {sig10(worst):.10g} over {len(codes)} network(s)\n")
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
    except (EvidenceError, StreamValidationError, StateSpaceCapError) as exc:
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
