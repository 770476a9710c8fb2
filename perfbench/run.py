"""Benchmark of maturesim: the 28-day strip maturation and the calibration.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload strip240_maturation --seed 1 \
        --seconds 30 --trace 0

Each workload runs in a process of its own (worker.py) with BLAS limited to
the cores this process may use.  With ``--trace 0`` the run sets up the
inputs SETUP_REPEATS times, each in a fresh process, and reports the median
set-up time, then solves whole rounds while the next one, at the pace of
the last, brings the end of the run nearer to ``--seconds`` (always at
least one), and reports the median round.  With ``--trace 1`` an untraced
and then a traced process
solve the same inputs; the traced one reports the per-layer figures, and
the gap between their solve times is reported as the tracing overhead.
The physical answer and every correctness check are printed above the
last line, which is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See README.md in this directory.
"""

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (benchmark module, found through the path above)

WORKLOADS = ("strip240_maturation", "point_calibration")
# set-ups per untraced run: SETUP_REPEATS - 1 set-up-only processes + the worker
SETUP_REPEATS = 3
# the whole run, workers included, ends within this many seconds
DEADLINE_S = 170.0


class Worker:
    """A worker process whose stdout lines arrive time-stamped on a queue."""

    def __init__(self, argv):
        env = dict(os.environ)
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                                     cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, prefix, deadline):
        """(arrival time, rest of line) of the next line starting with prefix."""
        while True:
            try:
                stamp, line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"worker gave no {prefix!r} line in time") from None
            if line is None:
                raise RuntimeError(f"worker ended without a {prefix!r} line "
                                   f"(exit code {self.proc.wait()})")
            if line.startswith(prefix):
                return stamp, line[len(prefix):]
            print(line, file=sys.stderr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        return False


def _worker_run(argv, deadline, setups):
    """Run one worker to its end and append its set-up time to `setups`.

    Returns its result, or None for a set-up-only worker.
    """
    with Worker(argv) as w:
        ready, _ = w.expect("READY", deadline)
        setups.append(ready - w.started)
        payload = None
        if "--setup-only" not in argv:
            _, payload = w.expect("RESULT ", deadline)
        if w.proc.wait(timeout=max(0.0, deadline - time.monotonic())) != 0:
            raise RuntimeError(f"worker {' '.join(argv)} failed")
    return None if payload is None else json.loads(payload)


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace"]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            _worker_run(argv + ["0", "--setup-only"], deadline, setups)
    # a traced run also solves untraced first: the gap is the tracing overhead
    result = plain = _worker_run(argv + ["0"], deadline, setups)
    if trace:
        result = _worker_run(argv + ["1"], deadline, [])

    for op, found in result["checks"].items():
        for name, ok, detail in found:
            print(f"check {op}: {'PASS' if ok else 'FAIL'} {name} ({detail})")
    print("answer " + json.dumps(result["answer"]))
    print(f"rounds {result['rounds']}: solve_s {result['solve_s']}")
    if trace:
        values = result["per_layer"]
        values["trace.overhead_s"] = (values["trace.solve_s"]
                                      - statistics.median(plain["solve_s"]))
        print(f"spans {result['spans_file']} (run id {result['run_id']})")
    else:
        print(f"setup_s samples {setups}")
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(result["solve_s"]),
                  "solve_cpu_s": statistics.median(result["solve_cpu_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, *_ in (metrics.PER_LAYER if trace
                                               else metrics.END_TO_END)}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "maturesim" / "__init__.py").is_file():
        print(f"perfbench: no maturesim sources at {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
