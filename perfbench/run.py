"""Benchmark of the oppm CLI and library, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; oppm is imported from ``src``
and needs no install.  The run generates the workload's inputs from the
seed, then repeats whole rounds of the workload's queries until another
round would overrun ``--seconds``.  Every answer is checked; a wrong or
missing answer counts as a failed operation.

``--trace 0`` runs each query as a fresh ``python -m oppm.cli`` process
and through the library in this process, and reports the end-to-end
metrics.  ``--trace 1`` calls ``oppm.cli.main`` in this process with the
layer functions wrapped (see ``tracing.py``) and reports the per-layer
metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Every sample of the run, and the spans of a traced run, go to
``perfbench/_out/``.

Every time is rescaled to a reference host speed.  The CPU throughput of
the shared host this benchmark was built on moves between two levels
about 1.4x apart and can stay at either for minutes, so raw times of
identical runs differ by up to 40 %.  A fixed pure-Python loop is timed
just before and just after every sample; the sample is multiplied by
``CALIBRATION_REF_S`` over the mean of the two, which gives the time it
would have taken at the reference speed.  The raw times are kept in the
run's record.  A metric is the median over the run's rounds, per query,
summed over the queries.
"""

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import LAYERS, Trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5
# best time of calibrate() on the reference host (2 cores, Python 3.11)
CALIBRATION_REF_S = 0.0065


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        best = min(best, time.perf_counter() - start)
    return best


def timed(fn):
    """Call fn(); return its result (or the exception it raised) and the
    seconds it took.  The benchmark's own objects are frozen first, so the
    garbage collector's passes during fn() walk fn's objects only, not
    whatever the benchmark happens to hold at that moment."""
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a crash of the library is a failed query
        print(f"library raised {exc!r}", file=sys.stderr)
        result = exc
    return result, time.perf_counter() - start


class Spawner:
    """The lean helper process that starts every CLI child (spawner.py)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv, stdout: Path) -> dict:
        req = {"argv": [sys.executable, *argv], "env": self._env,
               "stdout": str(stdout), "stderr": str(stdout) + ".err"}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


class Bench:
    """One run: the queries, the counts of operations, and every sample."""

    def __init__(self, spawner, work: Path, queries, corrupt):
        self.spawner = spawner
        self.work = work
        self.queries = queries
        self.corrupt = corrupt
        self.attempted = 0
        self.failures = []
        # samples[kind][query label] -> one value per round
        self.samples = defaultdict(lambda: defaultdict(list))
        self.spans = []

    def sample(self, kind: str, label: str, fn):
        """Run fn() -> (result, seconds) between two calibrations; record
        the rescaled and the raw seconds.  Returns (result, scale factor)."""
        before = calibrate()
        result, seconds = fn()
        scale = 2 * CALIBRATION_REF_S / (before + calibrate())
        self.samples[kind][label].append(seconds * scale)
        self.samples[kind + ".raw"][label].append(seconds)
        return result, scale

    def record(self, query, via: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{query.label} ({via})")

    def cli_ok(self, query, status: int, out: Path) -> bool:
        if status != 0:
            return False
        text = out.read_text()
        if self.corrupt is not None:
            text = self.corrupt(query, text)
        try:
            answer = query.from_cli(text)
        except ValueError:
            return False
        return query.verify(answer)

    def spawn(self, kind: str, label: str, argv, out: Path) -> dict:
        def child():
            r = self.spawner.run(argv, out)
            return r, r["wall_s"]

        return self.sample(kind, label, child)[0]

    def end_to_end_round(self) -> None:
        out = self.work / "cli.out"
        for q in self.queries:
            r = self.spawn("cli", q.label, ["-m", "oppm.cli", *q.argv], out)
            self.samples["rss_kb"][q.label].append(r["maxrss_kb"])
            self.record(q, "cli", self.cli_ok(q, r["status"], out))

            result, _ = self.sample("api", q.label, lambda: timed(q.api))
            self.record(q, "api", not isinstance(result, Exception) and q.verify(q.from_api(result)))

    def traced_round(self) -> None:
        import oppm.cli as cli
        import oppm.dag

        for _ in range(IMPORT_SAMPLES):
            self.spawn("import", "-", ["-c", "import oppm.cli"], self.work / "import.out")
        out = self.work / "main.out"
        for q in self.queries:
            # untraced first: the difference is the tracing overhead
            with open(out, "w") as f, contextlib.redirect_stdout(f):
                code, _ = self.sample("main", q.label, lambda: timed(lambda: cli.main(q.argv)))
            self.record(q, "main", self.cli_ok(q, code, out))

            trace = Trace()

            def traced():
                code, _ = timed(lambda: trace.call(cli.main, q.argv, (cli, oppm.dag)))
                return code, trace.main_seconds()

            with open(out, "w") as f, contextlib.redirect_stdout(f):
                code, scale = self.sample("traced_main", q.label, traced)
            self.record(q, "main traced", self.cli_ok(q, code, out))
            own = trace.self_times()
            if abs(sum(own.values()) - trace.main_seconds()) > 1e-6:
                raise RuntimeError(f"{q.label}: layer self times do not add up to main")
            for layer in set(LAYERS.values()):
                self.samples[layer][q.label].append(own.get(layer, 0.0) * scale)
            for name, n in trace.counts.items():
                self.samples[name][q.label].append(n)
            self.spans.append({"query": q.label, "spans": trace.spans})

    def total(self, kind: str) -> float:
        """Median round of each query, summed over the queries."""
        return sum(statistics.median(values) for values in self.samples[kind].values())

    def count(self, name: str) -> int | None:
        """A counter summed over the queries; None if rounds disagree."""
        total = 0
        for values in self.samples[name].values():
            if len(set(values)) != 1:
                return None
            total += values[0]
        return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_metrics(bench: Bench) -> tuple[dict, bool]:
    """The per-layer metrics, and whether every counter repeated exactly."""
    counts = {name: bench.count(name) for name in (
        "ints", "stringmatch.chars", "stringmatch.goto", "stringmatch.fail", "stringmatch.matches",
        "treematch.goto", "treematch.fail", "treematch.matches", "dag.explored", "dag.dasg_edges")}
    unsteady = [name for name, n in counts.items() if n is None]
    if unsteady:
        print(f"counters differ between rounds: {unsteady}", file=sys.stderr)
        counts = {name: n or 0 for name, n in counts.items()}
    t = {layer: bench.total(layer) for layer in set(LAYERS.values())}
    return {
        "cli.import_s": bench.total("import"),
        "cli.parse_s": t["cli.parse"],
        "cli.parse_ints_per_s": _ratio(counts["ints"], t["cli.parse"]),
        "cli.other_s": t["cli.other"],
        "pattern.compile_s": t["pattern.compile"],
        "tree.build_s": t["tree.build"],
        "stringmatch.match_s": t["stringmatch.match"],
        "stringmatch.chars_per_s": _ratio(counts["stringmatch.chars"], t["stringmatch.match"]),
        "stringmatch.goto": counts["stringmatch.goto"],
        "stringmatch.fail": counts["stringmatch.fail"],
        "stringmatch.fail_per_goto": _ratio(counts["stringmatch.fail"], counts["stringmatch.goto"]),
        "stringmatch.matches": counts["stringmatch.matches"],
        "treematch.match_s": t["treematch.match"],
        "treematch.goto": counts["treematch.goto"],
        "treematch.fail": counts["treematch.fail"],
        "treematch.fail_per_goto": _ratio(counts["treematch.fail"], counts["treematch.goto"]),
        "treematch.matches": counts["treematch.matches"],
        "dag.dasg_s": t["dag.dasg"],
        "dag.dasg_edges": counts["dag.dasg_edges"],
        "dag.build_s": t["dag.build"],
        "dag.search_s": t["dag.search"],
        "dag.explored": counts["dag.explored"],
        "dag.explored_per_s": _ratio(counts["dag.explored"], t["dag.search"]),
    }, not unsteady


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
        corrupt=None) -> dict:
    """One benchmark run; returns the result object.  ``corrupt(query, text)``,
    if given, rewrites each CLI output before it is checked."""
    spawner = Spawner()  # started before any workload data exists
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import workloads

        make = workloads.WORKLOADS[workload]
        sizes = workloads.SMALL if small else workloads.FULL
        bench = Bench(spawner, work, None, corrupt)

        def setup():
            start = time.perf_counter()
            queries = make(seed, sizes, work)
            return queries, time.perf_counter() - start

        for _ in range(SETUP_REPEATS):
            bench.queries = None
            gc.collect()
            bench.queries, _ = bench.sample("setup", "-", setup)

        # compile oppm's bytecode cache before any timed process starts
        spawner.run(["-c", "import oppm.cli"], work / "import.out")

        started = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            if trace:
                bench.traced_round()
            else:
                bench.end_to_end_round()
            rounds += 1
            # the first round also checks each answer once; later rounds
            # repeat the same cost, so the last one predicts the next
            now = time.perf_counter()
            if now - started + now - round_start > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        spawner.close()

    correct = True
    if trace:
        metrics, correct = per_layer_metrics(bench)
        overhead = bench.total("traced_main") - bench.total("main")
        print(f"tracing overhead: {overhead:.6f} s of {bench.total('main'):.6f} s", file=sys.stderr)
    else:
        rss_kb = max(max(v) for v in bench.samples["rss_kb"].values())
        metrics = {"setup_s": bench.total("setup"),
                   "cli_s": bench.total("cli"), "api_s": bench.total("api"),
                   "peak_rss_mb": rss_kb / 1024}
    for failure in bench.failures:
        print(f"failed: {failure}", file=sys.stderr)
    units = _units()
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "small": small, "rounds": rounds,
              "samples": bench.samples, "spans": bench.spans, "result": result}
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["string-dense", "string-sparse", "tree", "dag"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args()
    if not (SRC / "oppm" / "cli.py").is_file():
        print(f"perfbench: no oppm sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process, the spawner and every CLI child, so each
    # calibration runs where the sample it brackets ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
