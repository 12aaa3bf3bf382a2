"""The per-test time limit dumps stacks, reaps worker processes and exits 1."""

import os
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = """
import multiprocessing
import sys
import time

sys.path.insert(0, {tests_dir!r})
from time_limit import arm_time_limit

if __name__ == "__main__":
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    print(child.pid, flush=True)
    arm_time_limit(1.0, sys.stderr.fileno())
    time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_expired_limit_dumps_stacks_reaps_children_and_exits(tmp_path):
    script = tmp_path / "hung.py"
    script.write_text(SCRIPT.format(tests_dir=str(Path(__file__).parent)))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1, done.stderr
    assert "most recent call first" in done.stderr
    pid = int(done.stdout.split()[0])
    deadline = time.monotonic() + 5.0
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid), f"child {pid} outlived its parent"
