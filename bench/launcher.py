"""Run ``beliefscope`` CLI ops in child processes and measure them from outside.

Each child is started as ``python -c "...cli.main()"`` with ``PYTHONPATH``
pointing at the checkout's ``src``, so nothing has to be installed and a
later ``__main__.py`` or console script cannot change what is measured.  BLAS
and OpenMP pools are pinned to one thread.  CPU time and peak RSS come from
the child's own rusage, read when it is reaped with ``os.wait4``.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process that
forked it.  So the children are not forked by the benchmark, which holds
numpy, the generated inputs and the oracle, but by a small stdlib-only
spawner: this file run as a script, which reads one request per line on
stdin and answers one result per line on stdout.  A child's peak RSS then
reads as its own, or as the spawner's (about 10 MB) if that were larger.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_CODE = "import sys; from beliefscope.cli import main; sys.exit(main())"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class OpResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn_and_wait(argv: list[str], out_path: str, err_path: str, cwd: str,
                    timeout: float) -> dict:
    """Spawn ``argv`` and reap it; the timed part, run inside the spawner."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            # reaped here, so Popen must not wait for (or signal) the pid again
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    timer.join()
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def serve() -> None:
    """The spawner's loop: one JSON request in, one JSON result out, until EOF."""
    for line in sys.stdin:
        req = json.loads(line)
        result = _spawn_and_wait(req["argv"], req["stdout"], req["stderr"], req["cwd"],
                                 req["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


class Launcher:
    """A running spawner; use as a context manager so it is always stopped."""

    def __init__(self, *, env: dict[str, str], cwd: Path, scratch: Path, timeout: float):
        self.cwd, self.timeout = cwd, timeout
        self.out_path, self.err_path = scratch / "op.stdout", scratch / "op.stderr"
        # the children inherit the spawner's environment
        self.proc = subprocess.Popen([sys.executable, "-S", __file__], env=env, cwd=cwd,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str]) -> OpResult:
        """Run the CLI with ``args`` and return its exit code, wall time from
        spawn to exit, user+sys CPU, peak RSS and output.

        stdout and stderr go to files in ``scratch`` so a large output can
        never block the child on a full pipe.  A child still running after
        ``timeout`` seconds is killed, and reported with a negative exit code.
        """
        req = {"argv": [sys.executable, "-c", CHILD_CODE, *args], "cwd": str(self.cwd),
               "stdout": str(self.out_path), "stderr": str(self.err_path),
               "timeout": self.timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        r = json.loads(line)
        return OpResult(r["returncode"], r["wall_s"], r["cpu_s"], r["maxrss_kb"],
                        self.out_path.read_bytes(), self.err_path.read_bytes())

    def close(self) -> None:
        """End the spawner and wait for it.  A child it is still running
        (when the benchmark stops on an error) ends first, at the latest
        when its timeout kills it, so no process outlives the benchmark."""
        self.proc.stdin.close()          # EOF ends the spawner's loop
        try:
            self.proc.wait(timeout=self.timeout + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
