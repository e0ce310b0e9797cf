"""The committed output corpus: what each CLI run in :data:`RUNS` printed.

``corpus.json`` holds, for each argv, the exit code and the sha256 of stdout
and of stderr.  The builtin models run on generated scenarios; each benchmark
workload's own op runs on the seed-1/2/3/5 inputs that ``bench/workloads.py``
writes (:func:`write_inputs`; imported, never changed), each in a directory
named ``<workload>-<seed>`` that the runs name relative to the working
directory.  Four wide-state trees, whose nodes have up to 12 states, run through
``infer`` and ``check`` from ``wide-<seed>`` directories, and a few hostile
inputs (a repeated key, a ``NaN`` token, a too-deep nesting, a U+2028 inside an
id, a ``--frames`` past ``sys.maxsize``) from ``hostile/``: every input is
written with the standard library alone (:func:`write_inputs`), so the same
bytes come out on every Python.  A ``check`` run's stdout is a residual, a
difference of nearly equal floats whose last digits move with any last-bit
change, so it is kept as its network count and a bound on the residual
instead.  ``test_corpus.py`` replays every run in process through
``cli.main``.  A change that alters an output rewrites the file with

    PYTHONPATH=src python tests/corpus.py

and names each changed entry, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from pathlib import Path

from beliefscope import cli

CORPUS = Path(__file__).with_name("corpus.json")
BENCH = Path(__file__).resolve().parents[1] / "bench"

SCENARIOS = ("static_spot", "moving_spot", "surround_scene", "adjacent_scene", "empty")
SEEDS = (1, 2, 3)
FRAMES = "30"
#: (commands, model flags): the single-scene models are inferred, the temporal ones tracked
ROUTES = [(("infer", "check"), ["--model", "diverticulum"]),
          (("infer", "check"), ["--model", "bend"]),
          (("track", "check"), ["--model", "lumen_tracker", "--mode", "paper"]),
          (("track", "check"), ["--model", "lumen_tracker", "--mode", "filter"]),
          (("track", "check"), ["--model", "dirty_lens"]),
          (("track", "check"), ["--model", "dirty_lens", "--window", "3"])]

RUNS = [[command, *flags, "--scenario", scenario, "--seed", str(seed), "--frames", FRAMES]
        for commands, flags in ROUTES for command in commands
        for scenario in SCENARIOS for seed in SEEDS]
RUNS += [["generate", "--scenario", scenario, "--seed", str(seed), "--frames", FRAMES]
         for scenario in SCENARIOS for seed in SEEDS]

WORKLOADS = ("semi_static_masks", "dynamic_window", "dynamic_check", "wide_infer")
WORKLOAD_SEEDS = (1, 2, 3, 5)
#: each workload's op, as bench/workloads.py gives it, and check on the semi-static stream in both modes
WORKLOAD_OPS = {"semi_static_masks": [["track", "--spec", "model.json", "--stream", "stream.jsonl"],
                                      *(["check", "--spec", "model.json", "--mode", mode,
                                         "--stream", "stream.jsonl"] for mode in ("paper", "filter"))],
                "dynamic_window": [["track", "--model", "dirty_lens", "--stream", "stream.jsonl"]],
                "dynamic_check": [["check", "--model", "dirty_lens", "--stream", "stream.jsonl"]],
                "wide_infer": [["infer", "--spec", "tree.json", "--scene", "evidence.json"]]}
RUNS += [[f"{name}-{seed}/{a}" if a.endswith((".json", ".jsonl")) else a for a in op]
         for name in WORKLOADS for seed in WORKLOAD_SEEDS for op in WORKLOAD_OPS[name]]

#: seeds of the wide-state trees (:func:`wide_state_tree`), each inferred and checked
WIDE_SEEDS = (1, 2, 3, 4)
RUNS += [[command, "--spec", f"wide-{seed}/tree.json", "--scene", f"wide-{seed}/evidence.json"]
         for seed in WIDE_SEEDS for command in ("infer", "check")]

#: hostile inputs, under ``hostile/``: file name -> text
HOSTILE = {
    "duplicate-key.jsonl": '{"dt": 0.04}\n{"index": 0, "index": 1, "t": 0.0, "regions": []}\n',
    "nan-header.jsonl": '{"dt": NaN}\n{"index": 0, "t": 0.0, "regions": []}\n',
    "deep.json": '{"regions":\n' + "[" * 100_000 + "]" * 100_000 + "}\n",
    "u2028-id.jsonl": '{"dt": 0.04}\n{"index": 0, "t": 0.0, "regions": [{"id": "a\u2028b", '
                      '"colour_class": "dark", "centroid": [10.0, 10.0], "area": 20, '
                      '"bbox": [5, 5, 15, 15]}]}\n',
}
RUNS += [["track", "--model", "lumen_tracker", "--stream", "hostile/duplicate-key.jsonl"],
         ["track", "--model", "lumen_tracker", "--stream", "hostile/nan-header.jsonl"],
         ["infer", "--model", "diverticulum", "--scene", "hostile/deep.json"],
         ["track", "--model", "lumen_tracker", "--stream", "hostile/u2028-id.jsonl"],
         ["generate", "--scenario", "static_spot", "--frames", str(sys.maxsize + 1)]]

#: every residual ``check`` prints is below this
RESIDUAL_BOUND = 1e-9
_CHECK_LINE = re.compile(r"max \|propagate - enumeration\| = (\S+) over (\d+) network\(s\)\n")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(argv: list[str]) -> dict:
    """The corpus entry of ``argv``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    entry = {"argv": argv, "exit": code}
    line = _CHECK_LINE.fullmatch(out.getvalue()) if argv[0] == "check" else None
    if line is not None and float(line[1]) < RESIDUAL_BOUND:
        entry["networks"] = int(line[2])
    else:
        entry["stdout"] = _sha256(out.getvalue())
    entry["stderr"] = _sha256(err.getvalue())
    return entry


def wide_state_tree(seed: int, n_nodes: int = 40) -> tuple[dict, dict]:
    """A random tree document of ``n_nodes`` chance nodes of 2 to 12 states, about a fifth
    of its CPT entries zero, and an evidence document observing about 40% of the nodes
    at the states of one joint sample, so the evidence keeps positive mass."""
    rng = random.Random(seed)

    def row(k: int) -> list[float]:
        keep = rng.randrange(k)
        entries = [rng.random() + 0.05 if j == keep or rng.random() >= 0.2 else 0.0 for j in range(k)]
        total = math.fsum(entries)
        return [v / total for v in entries]

    nodes, sample, assignments = [], [], {}
    for i in range(n_nodes):
        k = rng.randint(2, 12)
        node = {"id": f"n{i}", "kind": "chance", "states": [f"s{j}" for j in range(k)]}
        if i == 0:
            node["prior"] = weights = row(k)
        else:
            parent = rng.randrange(i)
            node["parent"] = f"n{parent}"
            node["cpt"] = [row(k) for _ in nodes[parent]["states"]]
            weights = node["cpt"][sample[parent]]
        sample.append(rng.choices(range(k), weights)[0])
        if rng.random() < 0.4:
            assignments[node["id"]] = node["states"][sample[i]]
        nodes.append(node)
    return {"root": "n0", "nodes": nodes}, {"assignments": assignments}


def write_inputs(directory: Path) -> None:
    """Write the inputs the runs of RUNS read under ``directory``: each workload's for every
    seed of WORKLOAD_SEEDS, each wide-state tree and its evidence, and the hostile files."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    for name in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            (directory / f"{name}-{seed}").mkdir()
            workloads.generate(name, seed).write(directory / f"{name}-{seed}")
    for seed in WIDE_SEEDS:
        tree, evidence = wide_state_tree(seed)
        (directory / f"wide-{seed}").mkdir()
        (directory / f"wide-{seed}" / "tree.json").write_text(json.dumps(tree, indent=2) + "\n")
        (directory / f"wide-{seed}" / "evidence.json").write_text(json.dumps(evidence, indent=2) + "\n")
    (directory / "hostile").mkdir()
    for name, text in HOSTILE.items():
        (directory / "hostile" / name).write_text(text, encoding="utf-8")


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def write() -> None:
    """Run every argv, from a directory holding the workload inputs, and rewrite the
    corpus, one entry per line."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        try:
            lines = [json.dumps(outcome(argv)) for argv in RUNS]
        finally:
            os.chdir(here)
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    write()
    print(f"wrote {len(RUNS)} runs to {CORPUS}")
