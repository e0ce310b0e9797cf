#!/usr/bin/env python3
"""beliefscope benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src`` and nothing is installed.  Inputs are generated from the
seed into ``.bench_work/`` and removed afterwards; the run record, and when
traced the last op's spans, are written to ``.bench_out/``.

--trace 0  closed loop, one client: time a fixed reference computation,
           spawn the CLI op and wait for it, time the reference again, spawn
           one ``validate`` on the same model (set-up time), repeat for S
           seconds.  Reports the end-to-end metrics, op times in units of
           the reference beside them.
--trace 1  the same op in-process through ``cli.main(argv)``, alternating
           untraced and traced runs for S seconds.  Reports the per-layer
           metrics and the tracing overhead.

Every op's output is checked against the closed-form oracle.  The last line
of stdout is the JSON result; earlier lines are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import launcher  # noqa: E402  (sibling modules of this script)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3             # measured ops per run, however long they take
OP_TIMEOUT_S = 120.0


class Checker:
    """Checks op outputs against the oracle; identical bytes are checked once."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.verdicts: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.hashes: list[str] = []

    def op(self, returncode: int, stdout: bytes) -> None:
        digest = hashlib.sha256(stdout).hexdigest()
        self.hashes.append(digest)
        if digest not in self.verdicts:
            self.verdicts[digest] = oracle.check(
                self.workload.name, stdout.decode("utf-8", "replace"), self.workload.truth)
        self._count(returncode, self.verdicts[digest])

    def setup(self, returncode: int, stderr: bytes) -> None:
        self._count(returncode, None if stderr.strip() == b"ok" else f"validate said {stderr[:80]!r}")

    def _count(self, returncode: int, reason: str | None) -> None:
        self.attempted += 1
        if returncode != 0:
            reason = f"exit code {returncode}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def _rounds(one_round, seconds: float) -> None:
    """Repeat ``one_round`` for about ``seconds``: stop once another round of
    median length would overrun, so a run lasts the same on slow and fast
    commits; but always run at least MIN_OPS rounds."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_OPS and elapsed + statistics.median(durations) > seconds:
            return


REF_ITERATIONS = 12000  # about 40 ms on a quiet core of a 2-vCPU Xeon VM


def reference_s() -> float:
    """Wall time of a fixed computation that belongs to the benchmark, not to
    the program: small numpy array arithmetic and dict updates, the kind of
    work the CLI's inner loops do.  It is timed in this process just before
    and just after each op, so an op's time can be given in units of it.

    On a shared host a neighbour busy on the same core slows everything by
    up to 1.8x, and how often that happens changes from minute to minute, so
    raw op times from runs a few minutes apart differ by 30% or more.  The
    ratio of an op to the reference beside it cancels most of that, and only
    the program's own cost moves it.
    """
    import numpy as np
    vec, table, acc = np.ones(2), {}, 0.0
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        acc += float((vec * 1.0001).sum())
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start


def _abs_args(w: workloads.Workload, args: list[str], work: Path) -> list[str]:
    return [str(work / a) if a in w.files else a for a in args]


def measure_cli(w: workloads.Workload, work: Path, seconds: float, check: Checker):
    """Closed loop over child processes: reference, op, reference, then
    validate, until time is up."""
    op_args, setup_args = _abs_args(w, w.op_args, work), _abs_args(w, w.setup_args, work)
    walls, cpus, refs, rss, setups = [], [], [], [], []
    reference_s()   # warm-up: numpy's first calls are slower

    with launcher.Launcher(env=launcher.child_env(SRC), cwd=ROOT, scratch=work,
                           timeout=OP_TIMEOUT_S) as child:
        def one_round():
            before = reference_s()
            r = child.run(op_args)
            refs.append((before + reference_s()) / 2)
            check.op(r.returncode, r.stdout)
            walls.append(r.wall_s)
            cpus.append(r.cpu_s)
            rss.append(r.maxrss_kb / 1024.0)
            s = child.run(setup_args)
            check.setup(s.returncode, s.stderr)
            setups.append(s.wall_s)

        _rounds(one_round, seconds)
    wall_ref = [wall / ref for wall, ref in zip(walls, refs)]
    cpu_ref = [cpu / ref for cpu, ref in zip(cpus, refs)]
    metrics = {
        "wall_ref": (statistics.median(wall_ref), "ref"),
        "cpu_ref": (statistics.median(cpu_ref), "ref"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {"wall_ref": wall_ref, "cpu_ref": cpu_ref, "peak_rss_mb": rss, "setup_s": setups,
               "wall_s": walls, "cpu_s": cpus, "reference_s": refs}
    return metrics, samples, None


def measure_traced(w: workloads.Workload, work: Path, seconds: float, check: Checker):
    """In-process ops through cli.main, alternating untraced and traced runs."""
    from beliefscope import cli

    op_args = _abs_args(w, w.op_args, work)
    tracer = tracing.Tracer()

    def run(traced: bool) -> float:
        out = io.StringIO()
        if traced:
            tracer.start_op()
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                rc = cli.main(op_args)
                wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        check.op(rc, out.getvalue().encode("utf-8"))
        return wall

    plain, traced, per_op = [], [], []

    def one_round():
        # alternate which side runs first, so drift within a round cancels
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for t in order:
            wall = run(t)
            (traced if t else plain).append(wall)
            if t:
                per_op.append(tracer.end_op())

    _rounds(one_round, seconds)
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(op[name]["self_s"] for op in per_op), "s")
        metrics[f"{name}.calls"] = (statistics.median(op[name]["calls"] for op in per_op), "count")
        metrics[f"{name}.errors"] = (tracer.errors.get(name, 0), "count")
    n = len(per_op)
    for name, unit, _ in tracing.COUNTERS:
        metrics[name] = (tracer.counts[name] / n, unit)
    instantiated = tracer.counts["relation_nodes"]
    metrics["relational.observed_ratio"] = (
        tracer.counts["relation_nodes_clamped"] / instantiated if instantiated else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    samples = {"traced_wall_s": traced, "untraced_wall_s": plain}
    spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
             for s in tracer.spans]
    return metrics, samples, spans


def _dirty_lens_document() -> dict:
    """The builtin model's document, so the oracle reads the same CPTs the CLI uses."""
    from beliefscope.endoscopy import builtin_model
    from beliefscope.temporal import dynamic_to_document
    return dynamic_to_document(builtin_model("dirty_lens").model)


def _summary(args, metrics, samples, check: Checker) -> list[str]:
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    if not args.trace:
        units = {name: unit for name, (_, unit) in metrics.items()}
        units.update(wall_s="s", cpu_s="s", reference_s="s")
        for name, unit in units.items():   # the reported metrics, then the raw times
            vals = samples[name]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            stat, value = ("max", max(vals)) if name == "peak_rss_mb" else ("median", q2)
            lines.append(f"  {name:<12} {value:10.4f} {unit:<3} {stat} of n={len(vals)} "
                         f"(q1 {q1:.4f}, q3 {q3:.4f})")
        ratio = check.failed / check.attempted
        lines.append(f"  {'fail_ratio':<12} {ratio:10.4f} {'ratio':<3} {check.failed} failed of "
                     f"n={check.attempted} ops (op and validate)")
        return lines
    wall = statistics.median(samples["traced_wall_s"])
    lines.append(f"  traced op median {wall:.4f} s over n={len(samples['traced_wall_s'])}; "
                 f"share of traced wall by self time:")
    shares = sorted(((metrics[f"{n}.self_s"][0] / wall, n) for n in tracing.SPAN_NAMES),
                    reverse=True)
    for share, name in shares:
        calls = metrics[f"{name}.calls"][0]
        lines.append(f"    {name:<36} {share:6.1%}  calls {calls:g}")
    for name in [c[0] for c in tracing.COUNTERS] + ["relational.observed_ratio",
                                                      "trace.overhead_ratio"]:
        value, unit = metrics[name]
        lines.append(f"  {name:<44} {value:g} {unit}")
    lines.append(f"  fail_ratio {check.failed / check.attempted:g} "
                 f"({check.failed} of n={check.attempted} ops failed)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beliefscope" / "cli.py").is_file():
        print(f"no beliefscope sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in launcher.THREAD_VARS:   # before numpy is first imported, in either mode
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy

    load_start = os.getloadavg()
    w = workloads.generate(args.workload, args.seed)
    if args.workload.startswith("dynamic"):
        w.truth["model"] = _dirty_lens_document()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    check = Checker(w)
    try:
        w.write(work)
        measure = measure_traced if args.trace else measure_cli
        metrics, samples, spans = measure(w, work, args.seconds, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "samples": {name: len(vals) for name, vals in samples.items()},
        "values": samples,
        "attempted": check.attempted, "failed": check.failed, "fail_reasons": check.reasons,
        "output_sha256": check.hashes,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:   # one file per workload, so repeated traced runs reuse it
        with open(out_dir / f"{args.workload}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    for line in _summary(args, metrics, samples, check):
        print(line)
    print(f"  record: {out_dir / stem}.json", file=sys.stderr)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
