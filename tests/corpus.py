"""The committed output corpus: what each CLI run in :data:`RUNS` printed.

``corpus.json`` holds, for each argv, the exit code and the sha256 of stdout
and of stderr.  A ``check`` run's stdout is a residual, a difference of nearly
equal floats whose last digits move with any last-bit change, so it is kept as
its network count and a bound on the residual instead.  ``test_corpus.py``
replays every run in process through ``cli.main``.  A change that alters an
output rewrites the file with

    PYTHONPATH=src python tests/corpus.py

and names each changed entry, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from beliefscope import cli

CORPUS = Path(__file__).with_name("corpus.json")

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


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def write() -> None:
    """Run every argv and rewrite the corpus, one entry per line."""
    lines = [json.dumps(outcome(argv)) for argv in RUNS]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    write()
    print(f"wrote {len(RUNS)} runs to {CORPUS}")
