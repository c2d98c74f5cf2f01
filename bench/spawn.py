"""Run one command and report its wall time, exit code and peak RSS.

    python3 -S bench/spawn.py TIMEOUT_S STDERR_PATH ARGV...

Prints one JSON object: exit, wall_s, peak_rss_mb, cpu_s, timed_out.
The command inherits this process's environment and working directory.

run.py starts every timed call through this small process rather than
directly: on Linux a child's ru_maxrss starts from its parent's peak RSS
(the exec'd image inherits the forking process's high-water mark), so a
call started by run.py, which holds numpy and the references, would
report run.py's memory instead of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(timeout_s: float, stderr_path: str, argv: list[str]) -> dict:
    timed_out = threading.Event()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "timed_out": timed_out.is_set(),
    }


if __name__ == "__main__":
    print(json.dumps(main(float(sys.argv[1]), sys.argv[2], sys.argv[3:])))
