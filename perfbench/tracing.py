"""In-memory span tracing of dccl, recorded from outside the package.

`Tracer.install()` swaps the public functions that the harness and the
CLI call for wrappers that record a span (name, start, end, parent) or
bump a counter; `uninstall()` puts the originals back.  Nothing under
`src/` knows about it.  Spans stay in memory until the benchmark ends.

A training step has no function of its own, so the tracer synthesises a
`harness.step` span: it opens when the training loop pulls its next
batch and closes when the Adam update of that step returns.  Phase spans
whose parent is a step are the per-step phases; `harness.loop_other` is
the step time that no phase covers.

Grid workers are forked from the traced process, so they inherit the
wrappers.  Each worker job writes its own spans to `spans_dir` when it
ends, and the parent merges them with `worker_buffers()`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# The public primitives that get a call-count metric of their own; every
# other tape primitive still counts toward `autodiff.primitive_calls_per_step`.
NAMED_PRIMITIVES = (
    "add", "sub", "mul", "neg", "matmul", "transpose", "exp", "log",
    "softplus", "relu", "power", "reduce_sum", "reduce_mean",
    "l2_normalize", "logsumexp", "logaddexp", "gather_pairs", "index_rows",
)

STEP = "harness.step"
# per-step phases: span name -> metric name
PHASES = {
    "synthdata.batch": "synthdata.batch_ms_per_step",
    "synthdata.augment": "synthdata.augment_ms_per_step",
    "losses.positives": "losses.positives_ms_per_step",
    "nets.forward": "nets.forward_ms_per_step",
    "losses.objective": "losses.objective_ms_per_step",
    "autodiff.backward": "autodiff.backward_ms_per_step",
    "optim.adam": "optim.adam_ms_per_step",
}


def tape_primitives(ad):
    """Public functions of the autodiff module that record tape ops."""
    return {
        name: fn for name, fn in vars(ad).items()
        if callable(fn) and not name.startswith("_")
        and getattr(fn, "__module__", None) == ad.__name__
        and "_emit" in getattr(getattr(fn, "__code__", None), "co_names", ())
    }


class Buffer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.step = None         # index of the open step span

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        if self.stack and self.stack[-1] == index:
            self.stack.pop()

    def to_json(self):
        return {"spans": self.spans, "counts": dict(self.counts)}

    @classmethod
    def from_json(cls, data):
        buf = cls()
        buf.spans = [list(s) for s in data["spans"]]
        buf.counts = Counter(data["counts"])
        return buf


class Tracer:
    def __init__(self, spans_dir):
        self.spans_dir = Path(spans_dir)
        self.buf = Buffer()
        self.pid = os.getpid()
        self._undo = []
        self._job_seq = 0

    # -- recording -----------------------------------------------------------

    def take(self):
        """Hand over the spans recorded so far and start a fresh buffer."""
        buf, self.buf = self.buf, Buffer()
        return buf

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.buf.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.buf.end(index)
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.buf.step is not None:
                self.buf.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _batches(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def traced():
                while True:
                    buf = tracer.buf
                    buf.step = buf.begin(STEP)
                    index = buf.begin("synthdata.batch")
                    try:
                        batch = next(stream)
                    finally:
                        buf.end(index)
                    yield batch
            return traced()
        return wrapper

    def _adam_step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer.buf
            index = buf.begin("optim.adam")
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end(index)
                if buf.step is not None:
                    buf.end(buf.step)
                    buf.step = None
        return wrapper

    def _grid_job(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            forked = os.getpid() != tracer.pid
            if forked:
                tracer.buf = Buffer()
            index = tracer.buf.begin("harness.grid_job")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.buf.end(index)
                if forked:
                    tracer._job_seq += 1
                    path = tracer.spans_dir / f"worker-{os.getpid()}-{tracer._job_seq}.json"
                    path.write_text(json.dumps(tracer.take().to_json()))
        return wrapper

    def _forward(self, fn):
        """Model.embed / Model.logits count as the forward phase only
        inside a step; elsewhere (evaluation) they are plain calls."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer.buf
            if buf.step is None or buf.stack[-1] != buf.step:
                return fn(*args, **kwargs)
            index = buf.begin("nets.forward")
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end(index)
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self):
        import dccl.cli
        from dccl import autodiff, connectivity, formats, harness, nets, optim

        self.pid = os.getpid()
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "dccl" or name.startswith("dccl."))]

        # primitives: count every call made inside a step, wherever it is named
        for name, fn in tape_primitives(autodiff).items():
            wrapper = self._counted(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

        span = self._span
        self._patch(harness, "make_batches", self._batches(harness.make_batches))
        self._patch(harness, "augment", span("synthdata.augment", harness.augment))
        self._patch(harness, "resolve_positives",
                    span("losses.positives", harness.resolve_positives))
        self._patch(harness, "total_loss", span("losses.objective", harness.total_loss))
        self._patch(autodiff.Tape, "gradients",
                    span("autodiff.backward", autodiff.Tape.gradients))
        self._patch(optim.Adam, "step", self._adam_step(optim.Adam.step))
        self._patch(nets.Model, "embed", self._forward(nets.Model.embed))
        self._patch(nets.Model, "logits", self._forward(nets.Model.logits))
        self._patch(nets.Model, "accuracy", span("nets.eval", nets.Model.accuracy))
        self._patch(harness, "build_anchor", span("nets.anchor_build", harness.build_anchor))
        self._patch(harness.DatasetSpec, "build",
                    span("synthdata.dataset_build", harness.DatasetSpec.build))
        self._patch(harness, "train", span("harness.train", harness.train))
        grid = span("harness.ablation_grid", harness.ablation_grid)
        self._patch(harness, "ablation_grid", grid)
        self._patch(dccl.cli, "ablation_grid", grid)
        self._patch(harness, "_grid_job", self._grid_job(harness._grid_job))
        report = span("connectivity.report", connectivity.connectivity_report)
        self._patch(harness, "connectivity_report", report)
        self._patch(dccl.cli, "connectivity_report", report)
        self._patch(connectivity, "pairwise_stats",
                    span("connectivity.pairwise_stats", connectivity.pairwise_stats))
        self._patch(connectivity, "connecting_threshold",
                    span("connectivity.threshold", connectivity.connecting_threshold))
        self._patch(harness, "save_checkpoint",
                    span("formats.checkpoint_write", harness.save_checkpoint))
        self._patch(formats, "load_checkpoint",
                    span("formats.checkpoint_read", formats.load_checkpoint))
        self._patch(dccl.cli, "read_embeddings",
                    span("formats.embeddings_read", dccl.cli.read_embeddings))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def worker_buffers(self):
        """Collect and delete the span files that forked workers wrote."""
        buffers = []
        for path in sorted(self.spans_dir.glob("worker-*.json")):
            buffers.append(Buffer.from_json(json.loads(path.read_text())))
            path.unlink()
        return buffers


# -- aggregation ---------------------------------------------------------------

class Totals:
    """Span durations, span counts and primitive counts summed over buffers."""

    def __init__(self, buffers):
        self.seconds = Counter()       # name -> total seconds
        self.calls = Counter()         # name -> number of spans
        self.step_phase = Counter()    # phase span name -> seconds inside steps
        self.in_train = Counter()      # name -> seconds inside harness.train
        self.in_train_calls = Counter()
        self.primitives = Counter()
        for buf in buffers:
            self.primitives.update(buf.counts)
            spans = buf.spans
            for name, start, end, parent in spans:
                duration = end - start
                self.seconds[name] += duration
                self.calls[name] += 1
                if parent >= 0 and spans[parent][0] == STEP:
                    self.step_phase[name] += duration
                if _inside(spans, parent, "harness.train"):
                    self.in_train[name] += duration
                    self.in_train_calls[name] += 1


def _inside(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _per(value, count):
    return value / count if count else 0.0


def layer_metrics(setup, timed, reps, workers, overhead):
    """Per-layer metrics from the set-up buffers and the timed buffers of
    `reps` repetitions of the workload's main operation."""
    s, t = Totals(setup), Totals(timed)
    steps = t.calls[STEP]
    runs = t.calls["harness.train"]
    out = {}
    out["autodiff.primitive_calls_per_step"] = _per(sum(t.primitives.values()), steps)
    for name in NAMED_PRIMITIVES:
        out[f"autodiff.calls_per_step.{name}"] = _per(t.primitives[name], steps)
    step_ms = _per(1000.0 * t.seconds[STEP], steps)
    phase_total = 0.0
    for span_name, metric in PHASES.items():
        value = _per(1000.0 * t.step_phase[span_name], steps)
        out[metric] = value
        phase_total += value
    out["harness.step_ms"] = step_ms
    out["harness.loop_other_ms_per_step"] = step_ms - phase_total
    builds = s.calls["nets.anchor_build"] + t.calls["nets.anchor_build"]
    out["nets.anchor_build_s"] = _per(
        s.seconds["nets.anchor_build"] + t.seconds["nets.anchor_build"], builds)
    out["nets.anchor_builds"] = s.calls["nets.anchor_build"] + _per(
        t.calls["nets.anchor_build"], reps)
    out["nets.eval_ms_per_run"] = _per(1000.0 * t.in_train["nets.eval"], runs)
    out["connectivity.reports_per_run"] = _per(t.in_train_calls["connectivity.report"], runs)
    out["connectivity.report_ms_per_run"] = _per(
        1000.0 * t.in_train["connectivity.report"], runs)
    out["synthdata.dataset_builds"] = s.calls["synthdata.dataset_build"] + _per(
        t.calls["synthdata.dataset_build"], reps)
    out["formats.checkpoint_write_ms"] = _per(
        1000.0 * t.seconds["formats.checkpoint_write"], t.calls["formats.checkpoint_write"])
    out["formats.checkpoint_read_ms"] = _per(
        1000.0 * t.seconds["formats.checkpoint_read"], t.calls["formats.checkpoint_read"])
    out["harness.pool_efficiency"] = _per(
        t.seconds["harness.grid_job"], workers * t.seconds["harness.ablation_grid"])
    out["connectivity.pairwise_stats_s"] = _per(t.seconds["connectivity.pairwise_stats"], reps)
    out["connectivity.threshold_s"] = _per(t.seconds["connectivity.threshold"], reps)
    out["formats.embeddings_read_s"] = _per(t.seconds["formats.embeddings_read"], reps)
    out["trace.overhead"] = overhead
    return out


def dump_spans(path, buffers):
    """One JSON line per span: process buffer, index, name, start, end, parent."""
    with open(path, "w") as fh:
        for b, buf in enumerate(buffers):
            for i, (name, start, end, parent) in enumerate(buf.spans):
                fh.write(json.dumps({"buffer": b, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
