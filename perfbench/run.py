"""dccl benchmark: one workload, one JSON line of results.

    python3 perfbench/run.py --workload loo-full --seed 0 --seconds 35 --trace 0

Run it from the root of a dccl checkout; it imports dccl from `src/`
there and fails if there is none.  With `--trace 0` it prints the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer
metrics, measured in a separate traced pass.  The last line of standard
output is the result object; a copy goes to `perfbench/results/`.
"""

from __future__ import annotations

import os

# one BLAS thread per process: with the grid's two workers, load never
# exceeds two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# share of `--seconds` spent on set-up probes; the rest is timed rounds
SETUP_SHARE = 0.25


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="run the workload's set-up in DIR and exit (set-up timing)")
    return p.parse_args(argv)


def import_checkout(root):
    """Put the checkout's src/ first on sys.path and import dccl from it."""
    src = (root / "src").resolve()
    if not (src / "dccl" / "__init__.py").is_file():
        raise SystemExit(f"error: no dccl sources under {src}; run from a dccl checkout")
    sys.path.insert(0, str(src))
    import dccl

    if not Path(dccl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: dccl imported from {dccl.__file__}, not from {src}")


def metric_specs(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


class SetupProbes:
    """Fresh interpreters that each do the workload's set-up and exit.
    They run one at a time between the timed rounds, spread over the
    run, until they have taken `budget` seconds; `setup_s` is the median
    of their wall times.  It is not scaled by the speed gauge: set-up is
    mostly interpreter start and imports, which the gauge does not track
    (scaled, its spread over five runs grew from 0.06 to 0.16)."""

    def __init__(self, args, work, budget):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.work, self.budget, self.times = work, budget, []

    def probe(self):
        probe = self.work / f"probe{len(self.times)}"
        probe.mkdir()
        started = time.perf_counter()
        subprocess.run(self.cmd + [str(probe)], check=True)
        self.times.append(time.perf_counter() - started)
        shutil.rmtree(probe)

    def run_due(self, share):
        """Run the probes due once `share` of the run has passed."""
        while sum(self.times) < self.budget * share:
            self.probe()

    def seconds_left(self):
        return max(0.0, self.budget - sum(self.times))


def run_rounds(workload, seconds, started, failures, group=1, before=None, after=None,
               reserve=lambda: 0.0):
    """Whole groups of `group` rounds, at least one, until the next group,
    with `reserve()` seconds still to spend after it, would end more than
    half a group past `seconds` after `started`: so the run ends as near
    `seconds` as whole groups allow.  `before(r)` and `after(r)` run
    around round r, outside its timing.  Returns the ops of each round."""
    rounds, group_times = [], []
    while True:
        group_time = 0.0
        for _ in range(group):
            r = len(rounds)
            if before is not None:
                before(r)
            t0 = time.perf_counter()
            ops = workload.round(r)
            group_time += time.perf_counter() - t0
            rounds.append(ops)
            if all(op.ok for op in ops):
                failures.extend(workload.check_round(r))
            else:
                workload.discard_round(r)
            if after is not None:
                after(r)
        group_times.append(group_time)
        ahead = statistics.median(group_times) / 2 + reserve()
        if time.perf_counter() - started + ahead > seconds:
            return rounds


def rate(ops):
    """Items of the operations that succeeded ÷ their summed wall time."""
    done = [op for op in ops if op.ok]
    if not done:
        raise SystemExit("error: no timed operation succeeded")
    return sum(op.items for op in done) / sum(op.seconds for op in done)


def measure(args, workload, work, failures):
    """Untraced rounds with the set-up probes between them; the rate is
    scaled to nominal machine speed (see gauge.py)."""
    probes = SetupProbes(args, work, SETUP_SHARE * args.seconds)
    probes.probe()
    workload.gauge = gauge.Gauge()
    for owner, attr in workload.gauge_points():
        workload.gauge.watch(owner, attr)
    started = time.perf_counter()
    try:
        rounds = run_rounds(
            workload, args.seconds, started, failures,
            after=lambda r: probes.run_due((time.perf_counter() - started) / args.seconds),
            reserve=probes.seconds_left)
    finally:
        workload.gauge.unwatch()
    probes.run_due(1.0)
    # the benchmark process's own peak, plus what the grid's forked
    # workers added beyond the pages they share with it
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + workload.worker_rss_kb())
    ops = [op for ops in rounds for op in ops]
    scale = workload.gauge.scale()
    values = {
        "items_per_s": rate(ops) * scale,
        "setup_s": statistics.median(probes.times),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"measured items_per_s {rate(ops):.6g} before scaling; speed scale {scale:.4f}"
          f" from {len(workload.gauge.units)} gauge bursts", file=sys.stderr)
    return ops, values


def measure_traced(args, workload, work, failures, results_dir):
    """Traced set-up, then untraced and traced rounds in turn; the
    per-layer metrics come from the traced rounds."""
    import tracing

    tracer = tracing.Tracer(work / "spans")
    tracer.install()
    workload.setup()
    setup_buf = tracer.take()
    tracer.uninstall()

    def before(r):
        if r % 2:
            tracer.install()

    def after(r):
        if r % 2:
            tracer.uninstall()

    rounds = run_rounds(workload, args.seconds, time.perf_counter(), failures, group=2,
                        before=before, after=after)
    timed = [tracer.take()] + tracer.worker_buffers()
    untraced = [op for ops in rounds[0::2] for op in ops]
    traced = [op for ops in rounds[1::2] for op in ops]
    overhead = rate(untraced) / rate(traced) - 1.0
    values = tracing.layer_metrics([setup_buf], timed, len(rounds) // 2, workload.workers,
                                   overhead)
    tracing.dump_spans(results_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                       [setup_buf] + timed)
    return untraced + traced, values


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    import_checkout(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only is not None:
        cls(args.seed, args.setup_only).setup()
        return 0

    end_to_end, per_layer = metric_specs(root)
    work = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        workload = cls(args.seed, work)
        failures = []
        if args.trace:
            ops, values = measure_traced(args, workload, work, failures, results_dir)
            specs = per_layer
        else:
            workload.setup()
            ops, values = measure(args, workload, work, failures)
            specs = end_to_end
        failures += workload.check_first()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    names = [s["name"] for s in specs]
    if sorted(names) != sorted(values):
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    line = json.dumps(result)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
