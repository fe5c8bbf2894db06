"""Start CLI processes on request and report their wall time and peak memory.

The benchmark starts this helper before it makes any input, so the helper
stays small.  A child's maximum resident set as reported by ``wait4``
includes the resident set of the process that spawned it, so children
spawned from the benchmark process itself, which holds the workload's
data, would report that data as their own.

Protocol, one JSON object per line: the request on stdin is
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``; the
reply on stdout is ``{"wall_s": float, "status": int, "maxrss_kb": int}``,
where ``status`` is the exit code, or minus the signal number.
"""

import json
import os
import sys
import time

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], _FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], _FLAGS, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else -os.WTERMSIG(status)
        reply = {"wall_s": wall, "status": code, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
