"""The benchmark's workloads.

Each workload is built from the `--seed` alone and exposes
`setup()` (everything before the first timed operation), `round(r)`
(one whole round of timed operations, writing under `rep<r>/`; it
returns one `Op` per operation), `check_round(r)` (run after each
round, cheap) and `check_first()` (the full output checks of the first
round, run once the timed rounds are over).

An operation that raises or exits non-zero is an `Op` with `ok=False`;
a round with such an operation is neither compared nor checked, so the
checks speak of the rounds whose operations all succeeded.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

# The acceptance ablation grid's data, loss, optimiser and anchor settings.
GRID_SETTINGS = {
    "dataset.domains": 4,
    "dataset.classes": 3,
    "dataset.per_domain_class": 40,
    "dataset.rotation_step": 0.5,
    "dataset.class_separation": 2.0,
    "dataset.noise_std": 0.3,
    "loss.lambda": 1.0,
    "loss.beta": 0.15,
    "loss.temperature": 0.3,
    "augment.standard_intensity": 0.1,
    "augment.aggressive_intensity": 0.5,
    "optim.lr": 5e-4,
    "optim.steps": 1200,
    "optim.batch_size": 24,
    "optim.eval_every": 50,
    "anchor.steps": 300,
    "anchor.lr": 1e-3,
    "anchor.batch_size": 32,
}

# name -> (cdc, pma, gt, aggressive), the ten rows of `dccl ablate`, in order
ABLATION_ROWS = (
    ("erm", (False, False, False, False)),
    ("self_contrast", (False, False, False, True)),
    ("cdc", (True, False, False, True)),
    ("pma", (False, True, False, True)),
    ("gt", (False, False, True, True)),
    ("pma_gt", (False, True, True, True)),
    ("cdc_pma", (True, True, False, True)),
    ("cdc_gt", (True, False, True, True)),
    ("full_no_aggressive", (True, True, True, False)),
    ("full", (True, True, True, True)),
)


@dataclass
class Op:
    seconds: float
    items: int
    ok: bool = True


def config_text(settings):
    return "".join(f"{k} = {v}\n" for k, v in settings.items())


def _quiet_main(argv):
    """Run `dccl.cli.main`, keeping what it prints."""
    from dccl import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _worker_logged(job, out_dir, gauge):
    """Wrap a pool job so that the worker records its peak resident set
    (`ru_maxrss`, KiB) before and after the job, and the speed-gauge
    bursts it took during the job.  A forked worker's peak starts at the
    parent's resident set at fork, so the growth from the first job's
    start is the memory the worker added."""
    @functools.wraps(job)
    def wrapper(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        mark = gauge.mark() if gauge is not None else None
        try:
            return job(*args, **kwargs)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            units, spent = gauge.since(mark) if gauge is not None else ([], 0.0)
            path = out_dir / f"{os.getpid()}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps([os.getpid(), before, after, units, spent]))
    return wrapper


class Workload:
    """`sizes` overrides config keys (or `per_class`), for small test runs."""

    workers = 1
    # a gauge.Gauge while the untraced rounds run; see gauge_points()
    gauge = None

    def __init__(self, seed, work, **sizes):
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.sizes = sizes
        self._first = None      # (round, digests) of the first checked round

    def gauge_points(self):
        """The (owner, attribute) calls before which the speed gauge polls."""
        return []

    def clock(self):
        """Wall clock less the time the gauge has spent in this process."""
        return time.perf_counter() - (self.gauge.spent if self.gauge is not None else 0.0)

    def rep_dir(self, r):
        return self.work / f"rep{r}"

    def check_round(self, r):
        """Every round must reproduce the first checked round's files byte
        for byte; that round itself gets `check_outputs` once the timed
        rounds are over."""
        digests = checks.file_digests(self.rep_dir(r))
        if self._first is None:
            self._first = (r, digests)
            return []
        shutil.rmtree(self.rep_dir(r))
        return checks.check_same_bytes(self._first[1], digests, f"{self.name} rep{r}")

    def discard_round(self, r):
        """Drop a round in which an operation failed."""
        shutil.rmtree(self.rep_dir(r), ignore_errors=True)

    def check_first(self):
        if self._first is None:
            return []
        try:
            return self.check_outputs(self.rep_dir(self._first[0]))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{self.name}: unreadable output: {exc!r}"]

    def worker_rss_kb(self):
        """Peak memory the workload's worker processes added, in KiB."""
        return 0


class LooFull(Workload):
    """The full method (CDC+PMA+GT, aggressive augmentation) under
    leave-one-domain-out, one holdout per timed operation."""

    name = "loo-full"

    def setup(self):
        from dccl import harness
        from dccl.config import experiment_config, parse_config_text

        settings = {**GRID_SETTINGS, **self.sizes, "seeds": self.seed,
                    "dataset.seed": self.seed, "loss.cdc": "true", "loss.pma": "true",
                    "loss.gt": "true", "loss.aggressive_augmentation": "true"}
        self.cfg = experiment_config(parse_config_text(config_text(settings)), seed=self.seed)
        self.dataset = self.cfg.dataset.build()
        self.anchor = harness.build_run_anchor(self.cfg, self.dataset)
        self.results = {}

    def gauge_points(self):
        from dccl import optim

        return [(optim.Adam, "step")]

    def round(self, r):
        from dccl import harness

        ops = []
        for m in range(self.dataset.n_domains):
            started = self.clock()
            try:
                result = harness.train(replace(self.cfg, holdout=m), anchor=self.anchor,
                                       run_dir=self.rep_dir(r) / f"holdout{m}")
            except Exception:
                ops.append(Op(self.clock() - started, self.cfg.optim.steps, ok=False))
                continue
            ops.append(Op(self.clock() - started, self.cfg.optim.steps))
            self.results[(r, m)] = result
        return ops

    def check_round(self, r):
        failures = []
        for m in range(self.dataset.n_domains):
            failures += checks.check_batch_counts(
                self.results.pop((r, m)).domain_batch_counts, m, self.cfg.optim.steps,
                self.cfg.optim.batch_size, f"{self.name} rep{r} holdout{m}")
        return failures + super().check_round(r)

    def discard_round(self, r):
        for m in range(self.dataset.n_domains):
            self.results.pop((r, m), None)
        super().discard_round(r)

    def check_outputs(self, rep):
        ds = self.dataset
        failures = []
        for m in range(ds.n_domains):
            run_dir = rep / f"holdout{m}"
            failures += checks.check_test_accuracy(run_dir, ds.X, ds.labels, ds.domains, m)
            failures += checks.check_losses(run_dir / "losses.csv", self.cfg.optim.steps)
        return failures


class GridShort(Workload):
    """`dccl ablate` over the ten ablation rows x four holdouts with short
    runs; one whole grid per timed operation."""

    name = "grid-short"
    workers = 2

    def setup(self):
        import dccl.cli  # noqa: F401

        self.log_dir = self.work / "worker-logs"
        self.log_dir.mkdir(exist_ok=True)
        self.worker_peak_kb = 0
        settings = {**GRID_SETTINGS, "optim.steps": 150, **self.sizes,
                    "experiment": "grid", "output_dir": self.work / "out",
                    "seeds": self.seed, "dataset.seed": self.seed}
        self.steps = int(settings["optim.steps"])
        self.n_domains = int(settings["dataset.domains"])
        self.config_path = self.work / "grid.cfg"
        self.config_path.write_text(config_text(settings))

    def gauge_points(self):
        from dccl import optim

        return [(optim.Adam, "step")]

    def round(self, r):
        from dccl import harness

        job = harness._grid_job
        harness._grid_job = _worker_logged(job, self.log_dir, self.gauge)
        started = self.clock()
        try:
            code, printed = _quiet_main(["ablate", "--config", str(self.config_path),
                                         "--workers", str(self.workers)])
        except Exception:
            code, printed = None, ""
        finally:
            seconds = self.clock() - started
            harness._grid_job = job
        grid = self.work / "out" / "grid"
        ok = code == 0 and grid.is_dir()
        if ok:
            grid.rename(self.rep_dir(r))
            (self.rep_dir(r) / "stdout.txt").write_text(printed)
        else:
            shutil.rmtree(grid, ignore_errors=True)
        # the workers' gauge bursts delay the grid by about their time
        # spread over the workers
        gauge_seconds = self._collect_worker_logs()
        items = len(ABLATION_ROWS) * self.n_domains * self.steps
        return [Op(seconds - gauge_seconds / self.workers, items, ok)]

    def _collect_worker_logs(self):
        """Keep the largest sum, over one round's workers, of the memory
        each added beyond the pages it inherited at fork; hand the
        workers' gauge bursts to the gauge and return their time."""
        grown, gauge_seconds = {}, 0.0
        for path in sorted(self.log_dir.glob("*.json")):
            pid, before, after, units, spent = json.loads(path.read_text())
            low, high = grown.get(pid, (before, after))
            grown[pid] = (min(low, before), max(high, after))
            if self.gauge is not None:
                self.gauge.add(units)
            gauge_seconds += spent
            path.unlink()
        total = sum(high - low for low, high in grown.values())
        self.worker_peak_kb = max(self.worker_peak_kb, total)
        return gauge_seconds

    def worker_rss_kb(self):
        return self.worker_peak_kb

    def check_outputs(self, rep):
        failures = checks.check_summary(rep, ABLATION_ROWS, [self.seed], self.n_domains)
        for path in sorted((rep / "anchors").glob("*.txt")):
            failures += checks.check_checkpoint_roundtrip(path, self.work / "roundtrip.txt")
        for name, _ in ABLATION_ROWS:
            for m in range(self.n_domains):
                run_dir = rep / name / f"seed{self.seed}" / f"holdout{m}"
                failures += checks.check_losses(run_dir / "losses.csv", self.steps)
        return failures


class Connectivity2k(Workload):
    """`dccl connectivity` on a generated embedding dump, pooled mode then
    per-domain mode; one pair of calls per timed operation."""

    name = "connectivity-2k"
    MODES = ("pooled", "per-domain")

    def setup(self):
        from dccl.connectivity import EmbeddingRecord
        from dccl.formats import write_embeddings

        per_class = self.sizes.get("per_class", 2000)
        n_classes, n_domains, dim = 3, 4, 16
        rng = np.random.default_rng(self.seed)
        # each class/domain group is a Gaussian cloud around its own random
        # centre, normalised to unit length, so a pooled class spans four
        # clusters
        centres = rng.standard_normal((n_classes, n_domains, dim))
        self.classes = np.repeat(np.arange(n_classes), per_class)
        self.domains = np.tile(np.repeat(np.arange(n_domains), per_class // n_domains),
                               n_classes)
        v = centres[self.classes, self.domains] + 0.6 * rng.standard_normal(
            (len(self.classes), dim))
        self.vectors = v / np.linalg.norm(v, axis=1, keepdims=True)
        records = [EmbeddingRecord(i, int(c), int(m), self.vectors[i])
                   for i, (c, m) in enumerate(zip(self.classes, self.domains))]
        self.dump = self.work / "embeddings.txt"
        write_embeddings(records, self.dump, n_classes=n_classes, n_domains=n_domains)

    def gauge_points(self):
        from dccl import connectivity

        return [(connectivity, "pairwise_stats"), (connectivity, "connecting_threshold")]

    def round(self, r):
        rep = self.rep_dir(r)
        rep.mkdir(parents=True)
        ok = True
        started = self.clock()
        for mode in self.MODES:
            try:
                code, _ = _quiet_main(["connectivity", "--dump", str(self.dump),
                                       "--mode", mode, "--out", str(rep / f"{mode}.txt")])
            except Exception:
                code = None
            ok = ok and code == 0
        seconds = self.clock() - started
        return [Op(seconds, len(self.MODES) * len(self.vectors), ok)]

    def check_outputs(self, rep):
        failures = []
        for mode in self.MODES:
            failures += checks.check_report(rep / f"{mode}.txt", self.vectors,
                                            self.classes, self.domains, mode)
        return failures


WORKLOADS = {w.name: w for w in (LooFull, GridShort, Connectivity2k)}
