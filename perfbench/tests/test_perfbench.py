"""Fast tests of the benchmark itself, at small sizes.

Every output check must pass on real output and reject a deliberately
corrupted copy; the grid must write the same bytes on one worker and on
two; the tracer must account for the step time and leave dccl as it
found it.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_LOO = {"dataset.per_domain_class": 10, "optim.steps": 12, "optim.eval_every": 6,
             "anchor.steps": 5}
SMALL_GRID = {"dataset.per_domain_class": 6, "optim.steps": 4, "optim.eval_every": 2,
              "anchor.steps": 3}


def replace_in(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


@pytest.fixture
def loo(tmp_path):
    wl = workloads.LooFull(0, tmp_path, **SMALL_LOO)
    wl.setup()
    wl.round(0)
    assert wl.check_round(0) == []
    return wl


def test_loo_checks_pass(loo):
    assert loo.check_first() == []


def test_test_accuracy_check_rejects_wrong_accuracy(loo):
    result = loo.rep_dir(0) / "holdout1" / "result.csv"
    acc = checks.read_key_values(result)["test_accuracy"]
    replace_in(result, f"test_accuracy,{acc}", "test_accuracy,0.123")
    assert any("test_accuracy" in f for f in loo.check_first())


def test_losses_check_rejects_inexact_total(loo):
    path = loo.rep_dir(0) / "holdout2" / "losses.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = checks.fmt17(float(cells[4]) * (1 + 1e-15))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("!=" in f for f in checks.check_losses(path, SMALL_LOO["optim.steps"]))


def test_batch_count_check_rejects_leak_and_short_count():
    assert checks.check_batch_counts({1: 4, 2: 4}, 0, 1, 8, "run") == []
    assert checks.check_batch_counts({0: 4, 1: 4}, 0, 1, 8, "run")
    assert checks.check_batch_counts({1: 4, 2: 3}, 0, 1, 8, "run")


def test_rounds_repeat_byte_for_byte(loo):
    loo.round(1)
    assert loo.check_round(1) == []
    loo.round(2)
    replace_in(loo.rep_dir(2) / "holdout0" / "losses.csv", "step,", "step ,")
    assert loo.check_round(2)


def grid_digests(work, workers):
    wl = workloads.GridShort(0, work, **SMALL_GRID)
    wl.workers = workers
    wl.setup()
    assert all(op.ok for op in wl.round(0))
    assert wl.check_round(0) == []
    return wl, checks.file_digests(wl.rep_dir(0))


def test_grid_two_workers_write_the_same_bytes_as_one(tmp_path):
    _, one = grid_digests(tmp_path, 1)
    shutil.rmtree(tmp_path / "rep0")
    wl, two = grid_digests(tmp_path, 2)
    assert one == two
    assert wl.check_first() == []
    assert wl.worker_rss_kb() > 0
    assert list(wl.log_dir.iterdir()) == []

    rep = wl.rep_dir(0)
    lines = (rep / "summary.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[5] = "0.5" if cells[5] != "0.5" else "0.25"
    lines[3] = ",".join(cells)
    (rep / "summary.csv").write_text("\n".join(lines) + "\n")
    assert any("summary.csv" in f for f in wl.check_first())

    anchor = rep / "anchors" / "anchor_seed0.txt"
    anchor.write_text(anchor.read_text() + "\n")
    assert checks.check_checkpoint_roundtrip(anchor, tmp_path / "copy.txt")


def test_connectivity_checks(tmp_path):
    wl = workloads.Connectivity2k(0, tmp_path, per_class=40)
    wl.setup()
    assert all(op.ok for op in wl.round(0))
    assert wl.check_round(0) == []
    assert wl.check_first() == []

    pooled = wl.rep_dir(0) / "pooled.txt"
    rows, _ = checks.read_report(pooled)
    count, tau, mu, sigma, score = rows[(1, None)]
    replace_in(pooled, checks.fmt17(tau), checks.fmt17(tau * 1.001))
    assert any("tau" in f for f in wl.check_first())

    per_domain = wl.rep_dir(0) / "per-domain.txt"
    rows, _ = checks.read_report(per_domain)
    count, tau, mu, sigma, score = rows[(2, 3)]
    failures = checks.check_report(per_domain, wl.vectors, wl.classes, wl.domains, "per-domain")
    assert failures == []
    replace_in(per_domain, f"{checks.fmt17(mu)},", f"{checks.fmt17(mu * 0.999)},")
    failures = checks.check_report(per_domain, wl.vectors, wl.classes, wl.domains, "per-domain")
    assert any("mu" in f for f in failures)


def test_failed_operations_are_counted_not_raised(tmp_path, monkeypatch):
    import dccl.cli
    from dccl import harness

    wl = workloads.LooFull(0, tmp_path / "loo", **SMALL_LOO)
    wl.setup()
    train = harness.train

    def diverge_on_holdout_1(cfg, **kwargs):
        if cfg.holdout == 1:
            raise harness.TrainingDiverged(3, float("nan"))
        return train(cfg, **kwargs)

    monkeypatch.setattr(harness, "train", diverge_on_holdout_1)
    assert [op.ok for op in wl.round(0)] == [True, False, True, True]

    def diverge(*args, **kwargs):
        raise harness.TrainingDiverged(0, float("nan"))

    grid = workloads.GridShort(0, tmp_path / "grid", **SMALL_GRID)
    grid.setup()
    monkeypatch.setattr(dccl.cli, "ablation_grid", diverge)
    ops = grid.round(0)
    assert [op.ok for op in ops] == [False]
    assert not (grid.work / "out" / "grid").exists()


class Flaky(workloads.Workload):
    """Round 0 has a failed operation; every round writes the same file."""

    name = "flaky"

    def round(self, r):
        self.rep_dir(r).mkdir()
        (self.rep_dir(r) / "out.txt").write_text("same")
        return [workloads.Op(0.01, 1, ok=r != 0), workloads.Op(0.01, 1)]

    def check_outputs(self, rep):
        return [] if rep == self.rep_dir(1) else [f"checked {rep.name}"]


def test_rounds_with_a_failed_operation_are_not_checked(tmp_path):
    wl = Flaky(0, tmp_path)
    failures = []
    rounds = run.run_rounds(wl, 0.0, time.perf_counter(), failures, group=2)
    assert [[op.ok for op in ops] for ops in rounds] == [[False, True], [True, True]]
    assert failures == []
    assert not wl.rep_dir(0).exists()
    assert wl.check_first() == []


def traced(wl, tmp_path):
    from dccl import harness

    original = harness.train
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        wl.setup()
        setup = tracer.take()
        wl.round(0)
        timed = [tracer.take()] + tracer.worker_buffers()
    finally:
        tracer.uninstall()
    assert harness.train is original
    return tracing.layer_metrics([setup], timed, 1, wl.workers, 0.0), timed


def test_tracer_accounts_for_the_step_time(tmp_path):
    wl = workloads.LooFull(0, tmp_path / "work", **SMALL_LOO)
    metrics, timed = traced(wl, tmp_path)
    steps = sum(1 for buf in timed for s in buf.spans if s[0] == tracing.STEP)
    assert steps == 4 * SMALL_LOO["optim.steps"]
    named = sum(metrics[f"autodiff.calls_per_step.{p}"] for p in tracing.NAMED_PRIMITIVES)
    assert 0 < named <= metrics["autodiff.primitive_calls_per_step"]
    phases = sum(metrics[m] for m in tracing.PHASES.values())
    assert phases > 0
    assert metrics["harness.loop_other_ms_per_step"] >= 0
    assert phases + metrics["harness.loop_other_ms_per_step"] == pytest.approx(
        metrics["harness.step_ms"])
    assert metrics["nets.anchor_builds"] == 1
    assert metrics["connectivity.reports_per_run"] > 0


def test_tracer_collects_grid_worker_spans(tmp_path):
    wl = workloads.GridShort(0, tmp_path / "work", **SMALL_GRID)
    metrics, timed = traced(wl, tmp_path)
    assert len(timed) > 1
    steps = sum(1 for buf in timed for s in buf.spans if s[0] == tracing.STEP)
    assert steps == len(workloads.ABLATION_ROWS) * 4 * SMALL_GRID["optim.steps"]
    assert 0 < metrics["harness.pool_efficiency"] <= 1.0
    assert metrics["formats.checkpoint_read_ms"] > 0


def test_gauge_samples_grid_workers_and_leaves_dccl_as_it_was(tmp_path, monkeypatch):
    from dccl import optim

    monkeypatch.setattr(gauge, "INTERVAL_S", 0.0)
    step = optim.Adam.step
    wl = workloads.GridShort(0, tmp_path, **SMALL_GRID)
    wl.workers = 2
    wl.setup()
    wl.gauge = gauge.Gauge()
    for owner, attr in wl.gauge_points():
        wl.gauge.watch(owner, attr)
    try:
        (op,) = wl.round(0)
    finally:
        wl.gauge.unwatch()
    assert optim.Adam.step is step
    assert op.ok and op.seconds > 0
    # the parent polls in the anchor build, the workers in every run's steps
    runs = len(workloads.ABLATION_ROWS) * 4
    assert len(wl.gauge.units) > runs * SMALL_GRID["optim.steps"]
    assert wl.gauge.scale() > 0


def test_gauge_scale_leaves_out_preempted_bursts():
    g = gauge.Gauge()
    g.add([gauge.NOMINAL_UNIT_S] * 9 + [10 * gauge.NOMINAL_UNIT_S])
    assert g.scale() == pytest.approx(1.0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "setup_s", "peak_rss_mb"}
    layer = tracing.layer_metrics([], [], 1, 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loo-full",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
