"""Starts child processes for the benchmark and reports their wall time,
exit code and peak RSS.

Linux carries the high-water RSS of the process that calls exec into the
new program's ``ru_maxrss``, so a child started straight from the large
benchmark process would report the benchmark's own memory. This launcher
is started while the benchmark is still small and starts every measured
child itself.

Protocol (``Launcher`` is the client): one JSON line per child on stdin,
``{"argv": [...], "stdout": path}``; one JSON line back, ``{"wall_s",
"rc", "maxrss_mb"}``. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


class Launcher:
    """Client side: ``run`` one child at a time through the launcher."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout):
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": stdout}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main():
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "rc": proc.returncode,
                          "maxrss_mb": usage.ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
