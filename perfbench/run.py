"""kneadlab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload orbit-census --seed 1 --seconds 30 --trace 0

Runs one workload in this single process and thread, repeating its round
of operations until --seconds have passed (whole rounds only), checks
every output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics, writing the spans to
perfbench/results/trace-<workload>-<seed>.jsonl.  --self-test runs the
perturbation self-test of the checks instead.
"""

import os
import resource
import time

_T0 = time.perf_counter()
_STARTUP_CPU = sum(resource.getrusage(resource.RUSAGE_SELF)[:2])
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

WORKLOADS = ("orbit-census", "measure-stream", "nest-deep")
SETUP_REPEATS = 3


def _parse():
    ap = argparse.ArgumentParser(description="kneadlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def _digest(obj):
    try:
        return hashlib.sha1(pickle.dumps(obj, protocol=4)).hexdigest()
    except Exception:  # unpicklable output: never reuse a verdict for it
        return None


class Runner:
    """Times a workload's operations and checks their outputs.

    Outputs are deterministic, so an output whose digest (and whose
    dependencies' digests) equals one already checked reuses that verdict;
    the first round of a run is always checked in full.
    """

    def __init__(self, ops):
        self.ops = ops
        self.verdicts = {}
        self.attempted = 0
        self.failures = []
        self.unexpected = 0

    def round(self, times, tracer=None):
        import kneadlab as kl
        outputs = {}
        gc.collect()
        start = time.perf_counter()
        for op in self.ops:
            if tracer is not None:
                tracer.op = op.key
            t = time.perf_counter()
            try:
                out = op.call()
            except (kl.KneadlabError, ValueError) as e:
                out = e
            times.append(time.perf_counter() - t)
            outputs[op.key] = out
        wall = time.perf_counter() - start
        self._check(outputs)
        return wall

    def _check(self, outputs):
        for i, op in enumerate(self.ops):
            out = outputs[op.key]
            memo = (i, _digest(out)) + tuple(_digest(outputs[d]) for d in op.deps)
            if None in memo or memo not in self.verdicts:
                try:
                    verdict = op.check(out, outputs)
                except Exception as e:  # a check that cannot read the output
                    verdict = f"check raised {e!r}"
                if None not in memo:
                    self.verdicts[memo] = verdict
            else:
                verdict = self.verdicts[memo]
            self.attempted += 1
            if verdict is not None:
                self.failures.append(f"{op.key}: {verdict}")
                self.unexpected += not op.known_fault


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    args = _parse()
    if args.self_test:
        import selftest
        sys.exit(selftest.main())

    if not os.path.isdir(os.path.join(ROOT, "src", "kneadlab")):
        sys.exit(f"no kneadlab sources under {os.path.join(ROOT, 'src')}")
    t_import = time.perf_counter()
    import kneadlab  # noqa: F401
    import inputs
    import workloads
    import_s = time.perf_counter() - t_import

    pools = inputs.load_pools()
    build = workloads.BUILDERS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops, warm = build(random.Random(args.seed), pools)
        warm.call()
        setups.append(time.perf_counter() - t)
    # setup_s: interpreter start-up (its CPU time, which is all it does),
    # imports up to the first timed operation, then the median of the
    # repeated input generation plus one untimed warm-up operation.
    setup_s = _STARTUP_CPU + (t_import - _T0) + import_s + statistics.median(setups)

    runner = Runner(ops)
    times, walls = [], []
    tracer, traced_walls = None, []
    if args.trace:
        import spans
        tracer = spans.Tracer()
    t_start = time.perf_counter()
    while True:
        if tracer is not None and len(walls) > len(traced_walls):
            tracer.install()
            try:
                traced_walls.append(runner.round([], tracer))
            finally:
                tracer.uninstall()
        else:
            walls.append(runner.round(times))
        if time.perf_counter() - t_start >= args.seconds and (
                tracer is None or traced_walls):
            break

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(f"{len(walls)} rounds of {len(ops)} operations", file=sys.stderr)
    if args.trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        tracer.write_jsonl(os.path.join(
            HERE, "results", f"trace-{args.workload}-{args.seed}.jsonl"))
        values = spans.reduce_spans(tracer.spans, tracer.counts, len(traced_walls))
        # the first round pays one-off costs (allocations, mpmath caches),
        # so it is left out of the untraced side when there is another
        untraced = walls[1:] if len(walls) > 1 else walls
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(untraced))
        metrics = {k: {"value": v, "unit": spans.unit_of(k)}
                   for k, v in sorted(values.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_p90_s": {"value": _percentile(times, 90), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": runner.unexpected == 0,
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
