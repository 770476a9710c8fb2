"""One workload in its own process; started by run.py, not by hand.

Protocol on stdout: a line ``READY`` once the inputs are built, then (unless
``--setup-only``) one line ``RESULT <json>`` with the per-round solve times,
peak memory, operation counts, check outcomes, the physical answer and,
with ``--trace 1``, the per-layer figures.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (benchmark modules, found through the path above)
import metrics  # noqa: E402
import tracing  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.set_phase("setup")
        tracer.active = True
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    if tracer is not None:
        tracer.active = False
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rounds = []
    began = time.perf_counter()
    elapsed = round_time = 0.0
    # whole rounds only: another starts while, at the pace of the last one,
    # the run ends nearer to --seconds with it than without it, so that a
    # slow run of long rounds measures as long as a fast one
    peak_rss_mb = None
    while not rounds or elapsed + 0.5 * round_time <= args.seconds:
        round_start = time.perf_counter()
        fresh = wl.prepare(state)
        if tracer is not None:
            tracer.set_phase("solve")
            tracer.active = True
        w0, c0 = time.perf_counter(), time.process_time()
        outcomes = wl.solve(state, fresh)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.active = False
        rounds.append((wall, cpu, fresh, outcomes))
        if peak_rss_mb is None:
            # set-up and one round: later rounds repeat it, and the outcomes
            # they keep for the checks would tie the peak to the round count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        elapsed, round_time = now - began, now - round_start

    attempted = failed = 0
    correct = True
    report = {}
    for _, _, fresh, outcomes in rounds:
        for op in wl.ops:
            attempted += 1
            if isinstance(outcomes[op], Exception):
                failed += 1
                report[op] = [["raised", False, repr(outcomes[op])]]
                continue
            found = _run_check(wl.checks[op], state, fresh, outcomes[op])
            report[op] = [list(c) for c in found]
            if not all(c.ok for c in found):
                failed += 1
                correct = False
    last = rounds[-1][3]
    answer = (wl.answer(state, last)
              if not any(isinstance(v, Exception) for v in last.values()) else {})

    result = {
        "rounds": len(rounds),
        "solve_s": [r[0] for r in rounds],
        "solve_cpu_s": [r[1] for r in rounds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "checks": report,
        "answer": answer,
    }
    if tracer is not None:
        tracer.uninstall()
        traced_solve = statistics.median(r[0] for r in rounds)
        result["per_layer"] = metrics.per_layer(tracer, len(rounds), traced_solve)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["run_id"] = tracer.run_id
    print("RESULT " + json.dumps(result, default=float), flush=True)
    return 0


def _run_check(check, state, fresh, result):
    """Checks of one operation; a check that raises counts as failed."""
    try:
        return check(state, fresh, result)
    except Exception as exc:  # report it as a failed check, not a crash
        traceback.print_exc()
        return [checks.Check("check raised", False, repr(exc))]


if __name__ == "__main__":
    sys.exit(main())
