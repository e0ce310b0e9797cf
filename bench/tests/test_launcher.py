"""The launcher reports a child's own peak RSS, not the benchmark's."""

from pathlib import Path

import launcher

ROOT = Path(__file__).resolve().parents[2]


def test_peak_rss_is_the_childs_own(tmp_path):
    # held while the child runs: a child forked from this process would
    # report at least this much
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    with launcher.Launcher(env=launcher.child_env(ROOT / "src"), cwd=ROOT, scratch=tmp_path,
                           timeout=60) as child:
        r = child.run(["--help"])
    assert r.returncode == 0 and b"usage" in r.stdout
    assert 0 < r.maxrss_kb / 1024 < 150
    assert r.wall_s > 0 and r.cpu_s > 0
    del ballast


def test_spawner_stops_with_the_launcher(tmp_path):
    with launcher.Launcher(env=launcher.child_env(ROOT / "src"), cwd=ROOT, scratch=tmp_path,
                           timeout=60) as child:
        pass
    assert child.proc.returncode == 0
