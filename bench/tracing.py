"""Per-layer spans around the public functions of each ``beliefscope`` module.

The program has no spans of its own.  ``Tracer.install`` replaces every
module-level binding of a traced function -- in its own module and in every
module that imported it by name -- with a wrapper that records a span
(name, start, end, parent span, op id) and the layer's counters, and
``uninstall`` puts the originals back.  Spans stay in memory; each op's spans
are reduced to per-function self time and call counts when the op ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

#: traced functions by layer (module); cli.main is the root span of every op
TARGETS = {
    "cli": ("main",),
    "temporal": ("parse_stream", "filter_stream", "dynamic_trace", "build_dynamic_window",
                 "match_regions", "BeliefTrace.to_jsonl"),
    "relational": ("relationalize", "select_region", "eval_relation", "relational_diagnostics"),
    "network": ("validate_network", "network_diagnostics", "apply_evidence"),
    "propagation": ("propagate", "brute_force_beliefs"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

#: counters recorded at layer boundaries: (metric name, unit, "better")
COUNTERS = (
    ("temporal.parse_stream.bytes", "B", "lower"),
    ("propagation.propagate.nodes", "count", "lower"),
    ("propagation.brute_force_beliefs.joint_states", "count", "lower"),
)


def _count_parse_stream(counts, args):
    counts["temporal.parse_stream.bytes"] += len(args[0])   # streams are ASCII JSON


def _count_propagate(counts, args):
    counts["propagation.propagate.nodes"] += len(args[0].net.nodes)


def _count_brute_force(counts, args):
    counts["propagation.brute_force_beliefs.joint_states"] += math.prod(
        len(n.states) for n in args[0].net.nodes)


def _count_apply_evidence(counts, args):
    net, evidence = args[0], args[1]
    relations = [n.id for n in net.nodes if n.kind == "relation"]
    counts["relation_nodes"] += len(relations)
    counts["relation_nodes_clamped"] += sum(1 for r in relations if r in evidence.assignments)


_COUNTING = {
    "temporal.parse_stream": _count_parse_stream,
    "propagation.propagate": _count_propagate,
    "propagation.brute_force_beliefs": _count_brute_force,
    "network.apply_evidence": _count_apply_evidence,
}


class Tracer:
    """Records spans while installed; ``end_op`` reduces the current op."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = 0
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, errors, counts = self.spans, self.stack, self.errors, self.counts
        count = _COUNTING.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            if count is not None:
                count(counts, args)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"beliefscope.{layer}") for layer in TARGETS}
        package = [m for name, m in sys.modules.items()
                   if name == "beliefscope" or name.startswith("beliefscope.")]
        for layer, names in TARGETS.items():
            for fname in names:
                owner, attr = layers[layer], fname
                if "." in fname:                       # a method: patch the class
                    cls_name, attr = fname.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                self._patch(owner, attr, wrapper)
                if owner is layers[layer]:
                    # every module that did `from .layer import fname` holds its own binding
                    for mod in package:
                        if mod is not owner and mod.__dict__.get(attr) is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def end_op(self) -> dict[str, dict[str, float]]:
        """Self time and calls per span name for the op just finished.

        A span's self time is its duration minus the durations of its direct
        children.  The op's spans are kept until the next op starts, so the
        last op's spans can be written out.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {n: {"self_s": 0.0, "calls": 0} for n in SPAN_NAMES}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name]["self_s"] += (end - start) - inner
            out[name]["calls"] += 1
        return out

    def start_op(self) -> None:
        self.spans.clear()
        self.op += 1
