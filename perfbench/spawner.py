"""Launches the benchmark's child processes from a small interpreter.

Linux records the parent's peak RSS as the child's ``ru_maxrss`` when the
child execs from a vfork, so a child spawned straight from the benchmark
(which holds numpy, scipy and metroq) would report the benchmark's memory.
This process stays small and does the spawning instead.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path};
one JSON reply per line, {"wall_s", "cpu_s", "maxrss_kb", "exit_code"}.
The wall time runs from spawn to exit.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 120


def run(argv, stdout_path):
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stdout"])), flush=True)


if __name__ == "__main__":
    main()
