"""chromagraph benchmark: one workload per invocation, closed loop, one caller.

    python3 bench/run.py --workload {analytics,cli,walk_short} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Set-up is repeated SETUPS times and its
median reported as ``setup_s``; then operations run back to back until
``--seconds`` have passed, and at least one runs. The fixed reference job
of ``calibrate.py`` runs before each set-up and once per REF_EVERY
seconds of operations. Every time metric is reported at reference
speed, so that most of the host's own drift in speed cancels out: wall
seconds * (NOMINAL_S / median reference seconds of the run) ** e, with
e = 1 for set-up and OP_DRIFT for operations.
Peak RSS is read after RSS_OPS operations. Every operation's outputs are checked against
the digests pinned in ``bench/pins.json``; a failed check or an exception
counts in ``failed``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``). A traced run also writes its spans to
``.bench_work/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REQUIRED = ("src/chromagraph/__init__.py", "data/sms-spam.csv", "data/stopwords-en.txt")
SETUPS = 5
# Peak RSS is read after this many operations (or at the end of a shorter run),
# so that memory does not grow with speed when caches grow per operation.
RSS_OPS = 20
# Seconds of operations per run of the reference job (about 0.2 s each).
REF_EVERY = 1.5
# Operations follow part of the reference job's drift: over 13 sets of
# runs of the same code, log(median operation time) against log(median
# reference time) had slopes of 0.32 to 1.15, mean 0.65 (see README.md).
# Set-up, graph building like the job itself, follows all of it.
OP_DRIFT = 0.65

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
from calibrate import NOMINAL_S, time_reference  # noqa: E402
from tracer import NullTracer, Tracer, span_cost  # noqa: E402


def _workloads():
    import analytics
    import cli_seq
    import walk
    return {"analytics": analytics, "cli": cli_seq, "walk_short": walk}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_pins() -> dict:
    return json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _check(module, state, i, outcome, pins) -> bool:
    if outcome is None:
        return False
    try:
        return module.digests(state, outcome) == module.expected(state, i, pins)
    except Exception:
        traceback.print_exc()
        return False


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins=None) -> dict:
    """Run one workload; returns the result object that run.py prints."""
    module = _workloads()[name]
    pins = load_pins().get(name, {}) if pins is None else pins
    tracer = Tracer() if trace else NullTracer()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        time_reference()  # warm-up, not counted
        setup_times, refs = [], []
        for i in range(SETUPS):
            refs.append(time_reference())
            tracer.op = f"setup{i}"
            t0 = time.perf_counter()
            state = None  # drop the previous set-up before building the next
            state = module.setup(ROOT, work / f"setup{i}", seed, tracer)
            setup_times.append(time.perf_counter() - t0)

        durations, outcomes, failed, rss_kb = [], [], 0, None
        start = time.perf_counter()
        i = 0
        since_ref = 0.0
        while i == 0 or time.perf_counter() - start < seconds:
            while since_ref >= REF_EVERY:  # one reference run per REF_EVERY seconds
                refs.append(time_reference())
                since_ref -= REF_EVERY
            tracer.op = i
            t0 = time.perf_counter()
            try:
                outcome = module.op(state, i, tracer)
            except Exception:
                traceback.print_exc()
                outcome = None
            durations.append(time.perf_counter() - t0)
            since_ref += durations[-1]
            if not _check(module, state, i, outcome, pins):
                failed += 1
                print(f"{name} op {i}: output check failed", file=sys.stderr)
            # keep only what the metrics need, so outputs do not pile up in memory
            outcomes.append(outcome and {"items": outcome["items"], "info": outcome["info"]})
            i += 1
            if i == RSS_OPS:
                rss_kb = _max_rss_kb()

        refs.append(time_reference())
        # factors from wall seconds to seconds at reference speed
        speed = NOMINAL_S / statistics.median(refs)
        scale = {"setup": speed, "op": speed ** OP_DRIFT}
        print(f"reference job: median {statistics.median(refs):.4f} s of {len(refs)} runs",
              file=sys.stderr)
        listed = spec()
        if trace:
            values = {m["name"]: 0 for m in listed["per_layer"]}
            ops = list(range(i))
            values.update(module.layer_metrics(state, tracer, outcomes, ops, setup_times, scale))
            busy = sum(durations)
            values["trace.uncovered_share"] = 1 - sum(tracer.covered(op) for op in ops) / busy
            values["trace.overhead_share"] = len(tracer.spans) * span_cost() / busy
            tracer.dump(ROOT / ".bench_work" / f"trace-{name}-seed{seed}.json")
            values["machine.reference_s"] = statistics.median(refs)
            wanted = listed["per_layer"]
        else:
            # throughput from the median time of a round (ROUND consecutive operations,
            # one of each kind), so that a stall in one operation does not skew it
            k = min(module.ROUND, i)
            rounds = [sum(durations[j:j + k]) for j in range(0, i - k + 1, k)]
            items = sum(o["items"] for o in outcomes if o is not None) / i * k
            values = {
                "setup_s": statistics.median(setup_times) * scale["setup"],
                "throughput_per_s": items / statistics.median(rounds) / scale["op"],
                "latency_s_p50": statistics.median(durations) * scale["op"],
                "peak_rss_mb": (rss_kb or _max_rss_kb()) / 1024,
            }
            wanted = listed["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        return {"correct": failed == 0, "attempted": i, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("analytics", "cli", "walk_short"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in REQUIRED + ("BENCHMARK.json", "bench/pins.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a chromagraph checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
