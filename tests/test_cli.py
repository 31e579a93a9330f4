import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dccl
from dccl import autodiff as ad
from dccl.cli import main
from dccl.config import (SCHEMA, ConfigError, experiment_config, load_config,
                         parse_config_text)
from dccl.formats import FormatError, read_dataset, read_embeddings
from dccl.harness import ExperimentConfig
from dccl.options import option_fields, render


MICRO_CONFIG = """
experiment = micro
seeds = 0
dataset.kind = rotated_gaussians
dataset.domains = 3
dataset.classes = 2
dataset.per_domain_class = 12
dataset.rotation_step = 0.4
dataset.class_separation = 2.5
dataset.noise_std = 0.3
model.encoder_hidden = 12
model.embed_dim = 6
model.head_hidden = 12
optim.lr = 1e-3
optim.steps = 60
optim.batch_size = 8
optim.eval_every = 20
anchor.steps = 30
anchor.batch_size = 12
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO_CONFIG + f"output_dir = {tmp_path / 'runs'}\n" + extra)
    return path


def test_toy_weak_exact_output(capsys):
    assert main(["toy", "--variant", "weak", "--n", "256", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "d1 accuracy: 100.00%" in out
    assert "d2 accuracy: 0.00%" in out


def test_toy_aggressive_exact_output(capsys):
    assert main(["toy", "--variant", "aggressive"]) == 0
    out = capsys.readouterr().out
    assert "d1 accuracy: 100.00%" in out
    assert "d2 accuracy: 100.00%" in out


def test_toy_minimal_n(capsys):
    assert main(["toy", "--variant", "weak", "--n", "1"]) == 0


def test_toy_bad_variant_is_usage_error(capsys):
    assert main(["toy", "--variant", "blurry"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_toy_output_is_deterministic(capsys):
    main(["toy", "--variant", "weak", "--seed", "3"])
    first = capsys.readouterr().out
    main(["toy", "--variant", "weak", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_missing_config_file_names_path(capsys):
    assert main(["train", "--config", "/nonexistent/path.cfg"]) == 1
    assert "/nonexistent/path.cfg" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("optim.momentum = 0.9\n")
    assert main(["train", "--config", str(path)]) == 1
    assert "optim.momentum" in capsys.readouterr().err


def test_bad_config_value_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("optim.steps = soon\n")
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "optim.steps" in err


def test_every_schema_key_has_default_and_doc():
    for key, field in SCHEMA.items():
        assert field.metadata["help"], key
        parse_config_text("")  # defaults alone are a valid config


def test_readme_defaults_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line and not line.startswith("#")}
    assert keys == set(SCHEMA)
    assert parse_config_text(block, source="README") == parse_config_text("")


def test_config_mutual_exclusion_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "loss.cdc = true\nloss.self_contrast_only = true\n")
    assert main(["train", "--config", str(path)]) == 1


def test_gen_data_roundtrip(tmp_path):
    out = tmp_path / "data.txt"
    assert main(["gen-data", "--kind", "rotated_gaussians", "--domains", "3",
                 "--classes", "2", "--per-domain-class", "5", "--seed", "4",
                 "--out", str(out)]) == 0
    ds = read_dataset(out)
    assert len(ds) == 30
    assert ds.n_domains == 3 and ds.n_classes == 2
    # byte-identical rewrite
    from dccl.formats import write_dataset

    again = tmp_path / "data2.txt"
    write_dataset(ds, again)
    assert out.read_bytes() == again.read_bytes()


def test_gen_data_defaults_are_the_dataset_spec_defaults(tmp_path, capsys):
    from dccl.formats import write_dataset
    from dccl.harness import DatasetSpec

    out, expected = tmp_path / "cli.txt", tmp_path / "direct.txt"
    assert main(["gen-data", "--out", str(out)]) == 0
    write_dataset(DatasetSpec().build(), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_gen_data_flags_are_the_dataset_keys():
    from dccl.cli import build_parser

    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    actions = [a for a in commands["gen-data"]._actions if a.dest not in ("help", "out")]
    keys = [key for key in SCHEMA if key.startswith("dataset.")]
    assert [a.option_strings for a in actions] == [
        ["--" + key[len("dataset."):].replace("_", "-")] for key in keys]
    assert [a.default for a in actions] == [SCHEMA[key].default for key in keys]


def test_train_matches_direct_harness_call(tmp_path, capsys):
    from dccl.config import experiment_config
    from dccl.harness import train as train_direct

    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    values = load_config(path)
    direct = train_direct(experiment_config(values, seed=0))
    assert f"test_accuracy,{direct.test_accuracy:.17g}" in out.replace(
        f"{direct.test_accuracy:.17g}", f"{direct.test_accuracy:.17g}")
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert float(rows["test_accuracy"]) == direct.test_accuracy
    assert int(rows["selected_step"]) == direct.selected_step


def test_train_rerun_is_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    first_out = capsys.readouterr().out
    result_csv = tmp_path / "runs" / "micro" / "train" / "seed0" / "result.csv"
    first_bytes = result_csv.read_bytes()
    assert main(["train", "--config", str(path)]) == 0
    assert capsys.readouterr().out == first_out
    assert result_csv.read_bytes() == first_bytes
    assert (tmp_path / "runs" / "micro" / "train" / "seed0" / "config.txt").exists()


@pytest.mark.parametrize("command, extra", [
    (["train", "--holdout", "9"], ""),
    (["train"], "holdout = 3\n"),
    (["loo"], "holdout = -1\n"),
    (["train"], "dataset.kind = example31\nholdout = 2\n"),
])
def test_bad_holdout_fails_before_any_run_directory(tmp_path, capsys, command, extra):
    path = write_config(tmp_path, extra)
    assert main(command[:1] + ["--config", str(path)] + command[1:]) == 1
    assert "holdout domain" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [["train"], ["loo"], ["ablate", "--workers", "2"]])
def test_indivisible_batch_fails_before_any_run_directory(tmp_path, capsys, monkeypatch,
                                                          command):
    from dccl import harness

    def no_anchor(*args, **kwargs):
        raise AssertionError("anchor built")

    monkeypatch.setattr(harness, "build_anchor", no_anchor)
    path = write_config(tmp_path, "dataset.domains = 4\noptim.batch_size = 25\n"
                                  "loss.pma = true\nloss.gt = true\n")
    assert main(command[:1] + ["--config", str(path)] + command[1:]) == 1
    assert ("error: batch size 25 is not divisible by 3 domains; try 24 or 27"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [
    ("optim.eval_every", "0"), ("optim.eval_every", "-5"), ("optim.lr", "-1"),
    ("optim.lr", "0"), ("optim.lr", "inf"), ("optim.lr", "nan"), ("anchor.steps", "-3"),
    ("anchor.lr", "-1"), ("anchor.batch_size", "0"), ("anchor.batch_size", "-4"),
    ("augment.standard_intensity", "-1"), ("dataset.per_domain_class", "0"),
    ("model.encoder_hidden", "0"), ("model.encoder_hidden", "4,-2"),
    ("model.head_hidden", "-3"), ("model.embed_dim", "0"), ("dataset.seed", "-1"),
    ("seeds", "-2"),
])
def test_bad_optimizer_or_anchor_setting_fails_before_any_run_directory(
        tmp_path, capsys, monkeypatch, key, value):
    from dccl import harness

    def no_anchor(*args, **kwargs):
        raise AssertionError("anchor built")

    monkeypatch.setattr(harness, "build_anchor", no_anchor)
    path = write_config(tmp_path, f"loss.pma = true\n{key} = {value}\n")
    assert main(["train", "--config", str(path)]) == 1
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# numeric keys with no declared range: any rotation is a valid shift, and
# the holdout is checked against the domain count
UNBOUNDED = {"dataset.rotation_step", "holdout"}
# keys whose closed bound passes only beside another value: a head needs an
# embedding of at least 1
BOUND_CONTEXT = {"model.embed_dim": {"model.head_hidden": 0}}
RANGED = [(key, f.metadata["within"], type(f.default))
          for key, f in option_fields(ExperimentConfig) if f.metadata["within"]]


def test_every_numeric_option_declares_a_range():
    numeric = {key for key, f in option_fields(ExperimentConfig)
               if type(f.default) in (int, float, tuple)}
    assert numeric - UNBOUNDED == {key for key, _, _ in RANGED}


def _bounds(within, kind):
    """(value just outside, value on the bound or None if it is open) of
    each finite end of an interval, for int or float values."""
    low, high = (float(end) for end in within[1:-1].split(","))
    for bound, closed, away in ((low, within[0] == "[", -1), (high, within[-1] == "]", 1)):
        if math.isfinite(bound):
            bound = kind(bound)
            beyond = math.nextafter(bound, away * math.inf) if kind is float else bound + away
            yield (beyond, bound) if closed else (bound, None)


# (key, config text of a value `_bounds` yields, whether it lies past the
# bound) of every ranged key
BOUND_SETTINGS = [(key, render((value,) if kind is tuple else value), past)
                  for key, within, kind in RANGED
                  for outside, on in _bounds(within, int if kind is tuple else kind)
                  for value, past in ((outside, True), (on, False)) if value is not None]


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(BOUND_SETTINGS), min_size=1, max_size=4,
                unique_by=lambda setting: setting[0]))
def test_train_at_the_declared_bounds_exits_by_the_contract(chosen):
    """`train` with 1-4 keys on or just past their bounds: a value past
    its bound exits 1 before any write, a run that exits 0 records no nan,
    and any other fault is one runtime failure line, not a numpy warning."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = Path(tmp) / "runs"
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(MICRO_CONFIG + f"output_dir = {runs}\noptim.steps = 6\n"
                          + "".join(f"{key} = {value}\n" for key, value, _ in chosen))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(config)])
        assert code in (0, 1, 2), err.getvalue()
        if any(past for _, _, past in chosen):
            assert code == 1, err.getvalue()
        if code == 1:
            assert not (runs / "micro").exists()
        if code == 0:
            assert "nan" not in (runs / "micro" / "train" / "seed0" / "result.csv").read_text()
        if code == 2:
            assert "encountered in" not in err.getvalue()


@pytest.mark.parametrize("key, within, kind", RANGED, ids=[key for key, _, _ in RANGED])
def test_declared_range_is_checked_at_its_bounds(key, within, kind):
    base = parse_config_text(MICRO_CONFIG)
    wrap = (lambda v: (v,)) if kind is tuple else (lambda v: v)
    for outside, on in _bounds(within, int if kind is tuple else kind):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must"):
            experiment_config({**base, key: wrap(outside)}, seed=0)
        if on is not None:
            experiment_config({**base, **BOUND_CONTEXT.get(key, {}), key: wrap(on)}, seed=0)


@pytest.mark.parametrize("command, extra, message", [
    (["train", "--seed", "-1"], "", "usage error: argument --seed: must be at least 0, got -1"),
    (["loo"], "seeds = 0,-2\n", "error: seeds must be at least 0, got -2"),
    (["ablate"], "seeds = 0,-2\n", "error: seeds must be at least 0, got -2"),
    # train runs the first seed only, but a bad seed later in the list is
    # still a bad config
    (["train"], "seeds = 0,-2\n", "error: seeds must be at least 0, got -2"),
], ids=["train", "loo", "ablate", "train-seed-list"])
def test_negative_seed_fails_before_any_run_directory(tmp_path, capsys, command, extra, message):
    path = write_config(tmp_path, extra)
    assert main(command[:1] + ["--config", str(path)] + command[1:]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [["train"], ["loo"], ["ablate"]])
def test_repeated_seed_fails_before_any_run_directory(tmp_path, capsys, command):
    # a repeated seed would count one run twice in every mean
    path = write_config(tmp_path, "seeds = 0,0\n")
    assert main(command + ["--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: seeds must be distinct, got 0,0\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_ablate_with_fewer_than_one_worker_is_usage_error(tmp_path, capsys, workers):
    path = write_config(tmp_path)
    assert main(["ablate", "--config", str(path), "--workers", workers]) == 1
    assert (f"usage error: argument --workers: must be at least 1, got {workers}"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [("loss.temperature", "nan"),
                                        ("dataset.class_separation", "inf")])
def test_non_finite_config_value_fails_before_any_run_directory(tmp_path, capsys, key, value):
    path = write_config(tmp_path, f"{key} = {value}\n")
    assert main(["train", "--config", str(path)]) == 1
    assert f"error: {key} must be a finite number, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [["train"], ["loo"], ["ablate"]])
def test_empty_seed_list_rejected(tmp_path, capsys, command):
    path = write_config(tmp_path, "seeds =\n")
    assert main(command + ["--config", str(path)]) == 1
    assert "error: seeds must be comma-separated integers, got ''" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_gen_data_flag_writes_nothing(tmp_path, capsys, value):
    out = tmp_path / "data.txt"
    assert main(["gen-data", "--noise-std", value, "--out", str(out)]) == 1
    assert "argument --noise-std: must be a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
    (["--per-domain-class", "0"], "--per-domain-class must be at least 1, got 0"),
    (["--kind", "example31", "--n-per-class", "0"], "--n-per-class must be at least 1, got 0"),
], ids=["seed", "per-domain-class", "n-per-class"])
def test_out_of_range_gen_data_flag_named_and_nothing_written(tmp_path, capsys, flags, message):
    out = tmp_path / "data.txt"
    assert main(["gen-data", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_train_with_diverging_anchor_is_runtime_failure(tmp_path, capsys):
    path = write_config(tmp_path, "loss.pma = true\nanchor.lr = 1e200\n")
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(path)]) == 2
    assert "runtime failure: non-finite anchor loss" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["loss.cdc = true\n", ""], ids=["cdc", "erm"])
@pytest.mark.parametrize("batchnorm", ["false", "true"])
def test_overflowing_embedding_norm_is_runtime_failure(tmp_path, capsys, extra, batchnorm):
    # separation this large overflows the sum of squares of an embedding row
    path = write_config(tmp_path, "dataset.class_separation = 1e160\noptim.steps = 4\n"
                                  f"model.batchnorm = {batchnorm}\n{extra}")
    # a numpy overflow warning would raise here, not reach stderr beside the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(path)]) == 2
    assert re.fullmatch(r"runtime failure: cannot normalize row \d+ with norm overflowing "
                        r"float64\n", capsys.readouterr().err)


def test_degenerate_input_during_training_is_runtime_failure(tmp_path, capsys, monkeypatch):
    from dccl import cli
    from dccl.autodiff import DegenerateInputError

    def degenerate(cfg, run_dir=None):
        raise DegenerateInputError("cannot normalize vector with norm 0 < 1e-12")

    monkeypatch.setattr(cli, "train", degenerate)
    assert main(["train", "--config", str(write_config(tmp_path))]) == 2
    assert "runtime failure: cannot normalize" in capsys.readouterr().err


def test_start_up_never_loads_the_executor():
    """`concurrent.futures` costs every command about 12 ms of imports, so
    only the code that fans work out imports it, where it does."""
    code = "import sys, dccl.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(dccl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out == "False\n"


def test_the_model_module_loads_no_training_code():
    """`dccl.nets` defines the model; the optimizer, the objective and the
    training step that `harness.build_anchor` shares with runs sit above
    it, so a fresh import of it loads none of them."""
    code = ("import sys, dccl.nets; print([m for m in ('dccl.optim', 'dccl.losses', "
            "'dccl.harness') if m in sys.modules])")
    src = str(Path(dccl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"


def leak():
    raise RuntimeError("held-out domain 1 leaked into a training batch")


@pytest.mark.parametrize("fail, message", [
    (leak, "held-out domain 1 leaked into a training batch"),
    (lambda: ad._check_cols([3], (1, 3), "softmax_cross_entropy"),
     "softmax_cross_entropy column index out of range [0, 3)"),
    (lambda: ad._check_rows(np.array([8]), 8, "contrastive_term"),
     "contrastive_term row index out of range [0, 8)"),
    # every width a user sets is checked before the tape sees it, so a
    # ShapeError that reaches `main` is an internal fault; only ConfigError
    # and FormatError exit 1, whatever else is a ValueError
    (lambda: ad.Tensor(np.zeros((2, 0))), "tensor dimensions must be strictly positive, "
                                          "got (2, 0)"),
    (lambda: np.zeros(2).reshape(3), "cannot reshape array of size 2 into shape (3,)"),
], ids=["leak", "cols", "rows", "shape", "value"])
def test_other_failure_during_training_is_one_runtime_failure_line(tmp_path, capsys,
                                                                   monkeypatch, fail, message):
    from dccl import cli

    monkeypatch.setattr(cli, "train", lambda cfg, run_dir=None: fail())
    assert main(["train", "--config", str(write_config(tmp_path))]) == 2
    assert capsys.readouterr().err == f"runtime failure: {message}\n"


def test_ablate_divergence_in_a_worker_is_runtime_failure(tmp_path, capsys):
    path = write_config(tmp_path, "optim.lr = 1e200\n")
    with np.errstate(all="ignore"):
        assert main(["ablate", "--config", str(path), "--workers", "2"]) == 2
    assert "runtime failure: non-finite loss" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
def test_ablate_anchor_divergence_is_runtime_failure(tmp_path, capsys, workers):
    # the anchor-free cells start before the parent builds seed 0's anchor;
    # its failure starts no further cell
    path = write_config(tmp_path, "experiment = grid\nseeds = 0,1\nanchor.lr = 1e200\n")
    with np.errstate(all="ignore"):
        assert main(["ablate", "--config", str(path), "--workers", str(workers)]) == 2
    assert re.fullmatch(r"runtime failure: non-finite anchor loss .*\n", capsys.readouterr().err)
    grid = tmp_path / "runs" / "grid"
    run_dirs = {p.relative_to(grid) for p in grid.glob("*/seed*/holdout*")}
    for run_dir in run_dirs:
        assert sorted(p.name for p in (grid / run_dir).iterdir()) == [
            "checkpoint.txt", "losses.csv", "result.csv"]
    assert {p.name for p in grid.iterdir() if p.is_dir()} <= {"erm", "self_contrast", "cdc"}
    if workers == 1:
        # no pool cancels a cell: every anchor-free run finished
        assert run_dirs == {Path(row, f"seed{s}", f"holdout{m}")
                            for row in ("erm", "self_contrast", "cdc")
                            for s in (0, 1) for m in range(3)}


def test_domain_smaller_than_its_batch_share_is_user_error(tmp_path, capsys, monkeypatch):
    from dccl import harness

    def no_anchor(*args, **kwargs):
        raise AssertionError("anchor built")

    monkeypatch.setattr(harness, "build_anchor", no_anchor)
    # one labelled sample leaves one source domain, which a batch of 8 asks
    # for 8 samples; CDC would then find no negatives
    path = write_config(tmp_path, "label_ratio = 0.01\nloss.cdc = true\nloss.pma = true\n")
    assert main(["train", "--config", str(path)]) == 1
    assert re.fullmatch(r"error: domain [12] has 1 training samples, fewer than its share of 8 "
                        r"in a batch of 8 \(optim.batch_size\) over 1 domains\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "runs" / "micro" / "train" / "seed0" / "result.csv").exists()


@pytest.mark.parametrize("command", ["train", "loo", "ablate"])
@pytest.mark.parametrize("extra, key, share", [
    # one labelled sample is left, in one source domain
    ("label_ratio = 0.01\nloss.cdc = true\noptim.batch_size = 6\n", "optim.batch_size", 6),
    # 58 pooled anchor rows over 3 domains, 100 of each asked for
    ("loss.pma = true\nanchor.batch_size = 300\n", "anchor.batch_size", 100),
], ids=["labelled-split", "anchor-split"])
def test_split_too_small_for_its_batch_fails_before_any_write(tmp_path, capsys, monkeypatch,
                                                             command, extra, key, share):
    from dccl import harness

    def no_anchor(*args, **kwargs):
        raise AssertionError("anchor built")

    monkeypatch.setattr(harness, "build_anchor", no_anchor)
    path = write_config(tmp_path, "optim.steps = 6\n" + extra)
    assert main([command, "--config", str(path)]) == 1
    assert re.fullmatch(rf"error: domain \d has \d+ training samples, fewer than its share of "
                        rf"{share} in a batch of \d+ \({key}\) over \d domains\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "runs" / "micro").exists()


def test_collapsed_embeddings_write_undefined_connectivity(tmp_path, capsys):
    # jitter this large maps every sample to one embedding, so no class has
    # a connectivity score
    path = write_config(tmp_path, "augment.standard_intensity = 1e300\noptim.steps = 6\n")
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    result = tmp_path / "runs" / "micro" / "train" / "seed0" / "result.csv"
    assert "connectivity_selected,undefined" in out.splitlines()
    assert "connectivity_selected,undefined" in result.read_text().splitlines()


def test_loo_summary_table(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["loo", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["holdout", "seed0", "mean"]   # aligned table
    csv_lines = lines[5:]                                     # then the csv block
    assert csv_lines[0] == "holdout,seed0,mean"
    assert len(csv_lines) == 1 + 3 + 1  # three domains plus the average row
    assert csv_lines[-1].startswith("avg,")
    csv_text = "\n".join(csv_lines) + "\n"
    assert (tmp_path / "runs" / "micro" / "loo" / "summary.csv").read_text() == csv_text


def test_loo_runs_the_same_cells_as_ablate(tmp_path, capsys):
    # the config's loss flags are those of the grid's `full` row
    full = ("loss.cdc = true\nloss.pma = true\nloss.gt = true\n"
            "loss.aggressive_augmentation = true\nseeds = 0,1\noptim.steps = 20\n")
    assert main(["loo", "--config", str(write_config(tmp_path, full))]) == 0
    grid_config = write_config(tmp_path, full + "experiment = grid\n")
    assert main(["ablate", "--config", str(grid_config), "--workers", "2"]) == 0
    loo_dir, grid_dir = tmp_path / "runs" / "micro" / "loo", tmp_path / "runs" / "grid" / "full"
    for seed in (0, 1):
        for m in range(3):
            run = Path(f"seed{seed}") / f"holdout{m}"
            names = sorted(p.name for p in (loo_dir / run).iterdir())
            assert names == ["checkpoint.txt", "losses.csv", "result.csv"]
            assert names == sorted(p.name for p in (grid_dir / run).iterdir())
            for name in names:
                assert (loo_dir / run / name).read_bytes() == (grid_dir / run / name).read_bytes()
    for seed in (0, 1):
        anchor = Path("anchors") / f"anchor_seed{seed}.txt"
        assert (loo_dir.parent / anchor).read_bytes() == (grid_dir.parent / anchor).read_bytes()


def test_dump_and_connectivity_pipeline(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    checkpoint = tmp_path / "runs" / "micro" / "train" / "seed0" / "checkpoint.txt"
    data = tmp_path / "data.txt"
    assert main(["gen-data", "--domains", "3", "--classes", "2",
                 "--per-domain-class", "8", "--out", str(data)]) == 0
    dump = tmp_path / "emb.txt"
    assert main(["dump-embeddings", "--checkpoint", str(checkpoint),
                 "--data", str(data), "--out", str(dump)]) == 0
    capsys.readouterr()
    records, meta = read_embeddings(dump)
    assert len(records) == 48 and meta["dim"] == 6

    report_path = tmp_path / "report.txt"
    assert main(["connectivity", "--dump", str(dump), "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert report_path.read_text() == out
    assert "mean score:" in out
    assert main(["connectivity", "--dump", str(dump), "--mode", "per-domain"]) == 0


def test_connectivity_rerun_identical(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from dccl.connectivity import EmbeddingRecord
    from dccl.formats import write_embeddings

    records = [EmbeddingRecord(i, i % 2, 0, rng.standard_normal(3)) for i in range(10)]
    dump = tmp_path / "e.txt"
    write_embeddings(records, dump, n_classes=2, n_domains=1)
    assert main(["connectivity", "--dump", str(dump)]) == 0
    first = capsys.readouterr().out
    assert main(["connectivity", "--dump", str(dump)]) == 0
    assert capsys.readouterr().out == first


def test_connectivity_malformed_dump_names_line(tmp_path, capsys):
    dump = tmp_path / "bad.txt"
    dump.write_text("# dccl-dump v1 dim=2 classes=1 domains=1\n0,0,0,1.0,2.0\nnot,a,row\n")
    assert main(["connectivity", "--dump", str(dump)]) == 1
    assert ":3" in capsys.readouterr().err


def test_connectivity_rejects_a_later_dump_version(tmp_path, capsys):
    dump = tmp_path / "v12.txt"
    dump.write_text("# dccl-dump v12 dim=2 classes=1 domains=1\n"
                    "0,0,0,1.0,2.0\n1,0,0,0.5,0.5\n2,0,0,0.0,1.0\n")
    assert main(["connectivity", "--dump", str(dump)]) == 1
    assert capsys.readouterr().err == f"error: {dump}: missing embedding dump header\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_connectivity_non_finite_dump_names_line(tmp_path, capsys, bad):
    dump = tmp_path / "bad.txt"
    dump.write_text("# dccl-dump v1 dim=2 classes=1 domains=1\n"
                    f"0,0,0,1.0,2.0\n1,0,0,0.5,0.5\n2,0,0,{bad},1.0\n3,0,0,0.0,1.0\n")
    assert main(["connectivity", "--dump", str(dump)]) == 1
    assert f"{dump}:4: non-finite coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("mode, group", [("pooled", "class 1 domain all"),
                                         ("per-domain", "class 1 domain 0")])
@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "threaded"])
def test_connectivity_overflowing_distances_exit_1(tmp_path, capsys, monkeypatch, mode, group,
                                                    threads):
    from dccl import connectivity

    # finite coordinates whose distances overflow float64; with two threads
    # the fill's worker runs under the caller's error state too
    monkeypatch.setattr(connectivity, "THREAD_PAIRS", 1)
    monkeypatch.setattr(connectivity, "_cpu_count", lambda: threads)
    dump, out = tmp_path / "big.txt", tmp_path / "report.txt"
    dump.write_text("# dccl-dump v1 dim=2 classes=2 domains=1\n"
                    "0,0,0,0.0,1.0\n1,0,0,1.0,0.0\n"
                    "2,0,1,1e200,0.0\n3,0,1,-1e200,1.0\n4,0,1,0.0,2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["connectivity", "--dump", str(dump), "--mode", mode, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {group}: pairwise distances are not finite in float64 "
                            "(tau=inf mu=inf sigma=nan)\n")
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("2,0,7,1.0,2.0", "class id 7 outside [0, 3)"),
    ("2,0,-1,1.0,2.0", "class id -1 outside [0, 3)"),
    ("2,2,0,1.0,2.0", "domain id 2 outside [0, 2)"),
], ids=["class", "negative-class", "domain"])
def test_connectivity_dump_with_ids_out_of_range_names_line(tmp_path, capsys, row, message):
    dump, out = tmp_path / "bad.txt", tmp_path / "report.txt"
    dump.write_text("# dccl-dump v1 dim=2 classes=3 domains=2\n"
                    f"0,0,0,1.0,2.0\n1,1,0,0.5,0.5\n\n{row}\n")
    assert main(["connectivity", "--dump", str(dump), "--out", str(out)]) == 1
    assert f"error: {dump}:5: {message}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(FormatError) as err:
        read_embeddings(dump)
    assert str(err.value) == f"{dump}:5: {message}"


def test_dataset_dump_with_non_finite_coordinate_rejected(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("# dccl-data v1 generator=x domains=1 classes=1 dim=2 seed=0 params=\n"
                    "0,0,1.0,2.0\n\n0,0,nan,1.0\n")
    with pytest.raises(FormatError, match=":4: non-finite coordinate"):
        read_dataset(data)


def dump_embeddings_of(tmp_path, rows):
    """Exit code of `dump-embeddings` on a dataset dump of 2 domains and 1
    class with the given rows, and the dump's path."""
    from dccl.formats import save_checkpoint
    from dccl.nets import Model, ModelSpec

    data, ckpt, out = tmp_path / "data.txt", tmp_path / "ckpt.txt", tmp_path / "emb.txt"
    data.write_text("# dccl-data v1 generator=x domains=2 classes=1 dim=2 seed=0 params=\n"
                    + rows)
    save_checkpoint(Model(2, 1, ModelSpec(), np.random.default_rng(0)), ckpt)
    code = main(["dump-embeddings", "--checkpoint", str(ckpt),
                 "--data", str(data), "--out", str(out)])
    assert not out.exists()
    return code, data


@pytest.mark.parametrize("rows, message", [
    ("0,0,1.0,2.0\n0,1,1.0,2.0\n", "class ids must lie in [0, 1)"),
    ("2,0,1.0,2.0\n", "domain ids must lie in [0, 2)"),
], ids=["class", "domain"])
def test_dataset_dump_with_ids_out_of_range_names_file(tmp_path, capsys, rows, message):
    code, data = dump_embeddings_of(tmp_path, rows)
    assert code == 1
    assert f"error: {data}: {message}" in capsys.readouterr().err
    with pytest.raises(FormatError) as err:
        read_dataset(data)
    assert str(err.value) == f"{data}: {message}"


def cli_inputs(tmp_path):
    """Paths of a dataset dump, a checkpoint that embeds it, and an
    embedding dump, each valid."""
    from dccl.formats import save_checkpoint
    from dccl.nets import Model, ModelSpec

    data, ckpt, dump = tmp_path / "data.txt", tmp_path / "ckpt.txt", tmp_path / "emb.txt"
    assert main(["gen-data", "--out", str(data)]) == 0
    save_checkpoint(Model(2, 3, ModelSpec(), np.random.default_rng(0)), ckpt)
    dump.write_text("# dccl-dump v1 dim=2 classes=1 domains=1\n0,0,0,1.0,2.0\n1,0,0,0.5,0.5\n")
    return data, ckpt, dump


@pytest.mark.parametrize("flag, what", [("--dump", "embedding dump"), ("--data", "dataset"),
                                        ("--checkpoint", "checkpoint")])
def test_input_file_that_cannot_be_read_is_user_error(tmp_path, capsys, flag, what):
    data, ckpt, dump = cli_inputs(tmp_path)
    out = tmp_path / "out.txt"
    command = (["connectivity", "--dump", str(dump)] if flag == "--dump" else
               ["dump-embeddings", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(out)])
    directory = tmp_path / "a-directory"
    directory.mkdir()
    command[command.index(flag) + 1] = str(directory)
    capsys.readouterr()
    assert main(command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {what} file {directory}: ")
    assert "Is a directory" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "connectivity", "dump-embeddings"])
@pytest.mark.parametrize("target, message", [
    ("nodir/out.txt", "{tmp}/nodir is not an existing directory"),
    ("", "{tmp} is a directory"),
], ids=["missing-directory", "directory"])
def test_unusable_out_is_usage_error_before_any_work(tmp_path, capsys, command, target, message):
    data, ckpt, dump = cli_inputs(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    inputs = {"gen-data": [],
              "connectivity": ["--dump", str(dump)],
              "dump-embeddings": ["--checkpoint", str(ckpt), "--data", str(data)]}[command]
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument --out: {message.format(tmp=tmp_path)}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_dump_embeddings_of_a_dataset_without_rows_names_file(tmp_path, capsys):
    code, data = dump_embeddings_of(tmp_path, "")
    assert code == 1
    assert f"error: {data}: dataset has no rows" in capsys.readouterr().err


def test_connectivity_empty_dump_rejected(tmp_path, capsys):
    dump = tmp_path / "empty.txt"
    dump.write_text("# dccl-dump v1 dim=2 classes=1 domains=1\n")
    assert main(["connectivity", "--dump", str(dump)]) == 1


def test_dump_embeddings_dimension_mismatch(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    checkpoint = tmp_path / "runs" / "micro" / "train" / "seed0" / "checkpoint.txt"
    toy = tmp_path / "toy.txt"
    # the toy family is 2-d as well, so corrupt the header instead: use a
    # 2-class example31 dataset against a model trained on width-2 inputs
    assert main(["gen-data", "--kind", "example31", "--n-per-class", "4",
                 "--out", str(toy)]) == 0
    capsys.readouterr()
    # widen the dataset to 3 columns to force the mismatch
    lines = toy.read_text().splitlines()
    header = lines[0].replace("dim=2", "dim=3")
    body = [line + ",0" for line in lines[1:]]
    toy.write_text("\n".join([header] + body) + "\n")
    assert main(["dump-embeddings", "--checkpoint", str(checkpoint),
                 "--data", str(toy), "--out", str(tmp_path / "x.txt")]) == 1
    err = capsys.readouterr().err
    assert "2" in err and "3" in err


def test_corrupted_checkpoint_rejected(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.txt"
    ckpt.write_text("# dccl-checkpoint v1\nkind = model\narch.input_dim = oops\n")
    data = tmp_path / "d.txt"
    assert main(["gen-data", "--per-domain-class", "3", "--out", str(data)]) == 0
    assert main(["dump-embeddings", "--checkpoint", str(ckpt),
                 "--data", str(data), "--out", str(tmp_path / "x.txt")]) == 1


# each case replaces the line of its first key; the third also overrides the
# earlier encoder_hidden line with a width of 0, the next two give an array
# a shape of the right size that its slot does not have, and the last two
# give the model no input or no class
@pytest.mark.parametrize("new", ["arch.batchnorm = ture", "arch.batchnorm = false",
                                 "arch.batchnorm = true\narch.encoder_hidden = 0",
                                 "array.param.cls.W.shape = 9,1",
                                 "array.stat.head.bn.running_mean.shape = 2,2",
                                 "arch.input_dim = 0", "arch.n_classes = -1"])
def test_checkpoint_with_a_wrong_architecture_rejected(tmp_path, capsys, new):
    from dccl.formats import save_checkpoint
    from dccl.nets import Model, ModelSpec

    ckpt = tmp_path / "ckpt.txt"
    spec = ModelSpec(encoder_hidden=(4,), embed_dim=3, head_hidden=4, batchnorm=True)
    save_checkpoint(Model(2, 3, spec, np.random.default_rng(0)), ckpt)
    key = new.split(" = ")[0]
    ckpt.write_text(re.sub(rf"^{re.escape(key)} = .*$", lambda _: new, ckpt.read_text(),
                           count=1, flags=re.M))
    data, out = tmp_path / "d.txt", tmp_path / "emb.txt"
    assert main(["gen-data", "--per-domain-class", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["dump-embeddings", "--checkpoint", str(ckpt),
                 "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ckpt}: " in err
    if key.startswith("array."):
        name = key[len("array."):-len(".shape")].split(".", 1)[1]
        assert f"array {name!r} has shape" in err
    assert not out.exists()


# each case edits one array line: a shape, or data with the first value
# replaced
@pytest.mark.parametrize("key, edit, message", [
    ("param.enc.0.W.shape", lambda _: "2,x",
     "'enc.0.W' has shape '2,x': each dimension must be a non-negative integer"),
    ("param.enc.0.W.shape", lambda _: "-2,-32",
     "'enc.0.W' has shape '-2,-32': each dimension must be a non-negative integer"),
    ("param.enc.0.W.data", lambda v: "nan," + v.split(",", 1)[1],
     "'enc.0.W' holds a non-finite value at index 0"),
    ("stat.head.bn.running_var.data", lambda v: "-1," + v.split(",", 1)[1],
     "'head.bn.running_var' holds a negative variance at index 0"),
], ids=["letter", "negative", "nan", "variance"])
def test_checkpoint_with_a_corrupt_array_rejected(tmp_path, capsys, key, edit, message):
    from dccl.formats import save_checkpoint
    from dccl.nets import Model, ModelSpec

    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(Model(2, 3, ModelSpec(), np.random.default_rng(0)), ckpt)
    line = re.escape(f"array.{key} = ")
    ckpt.write_text(re.sub(rf"^({line})(.*)$", lambda m: m[1] + edit(m[2]), ckpt.read_text(),
                           count=1, flags=re.M))
    data, out = tmp_path / "d.txt", tmp_path / "emb.txt"
    assert main(["gen-data", "--per-domain-class", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["dump-embeddings", "--checkpoint", str(ckpt),
                 "--data", str(data), "--out", str(out)]) == 1
    assert f"error: {ckpt}: array {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new", [("kind = model", "kind = bogus"),
                                      ("kind = model\n", "")])
def test_checkpoint_with_a_bad_or_missing_kind_rejected(tmp_path, capsys, old, new):
    from dccl.formats import load_checkpoint, save_checkpoint
    from dccl.nets import Model, ModelSpec

    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(Model(2, 3, ModelSpec(), np.random.default_rng(0)), ckpt)
    ckpt.write_text(ckpt.read_text().replace(old, new))
    with pytest.raises(FormatError, match=f"^{ckpt}: checkpoint kind must be one of"):
        load_checkpoint(ckpt)
    data, out = tmp_path / "d.txt", tmp_path / "emb.txt"
    assert main(["gen-data", "--per-domain-class", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["dump-embeddings", "--checkpoint", str(ckpt),
                 "--data", str(data), "--out", str(out)]) == 1
    assert f"error: {ckpt}: checkpoint kind" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_creates_run_directories(tmp_path, capsys):
    path = tmp_path / "grid.cfg"
    path.write_text(MICRO_CONFIG + f"output_dir = {tmp_path / 'runs'}\n"
                    + "experiment = grid\nseeds = 0,1,2\n")
    assert main(["ablate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    grid_dir = tmp_path / "runs" / "grid"
    run_dirs = [p for p in grid_dir.glob("*/seed*") if p.is_dir()]
    assert len(run_dirs) == 30  # 10 rows x 3 seeds
    assert (grid_dir / "summary.csv").exists()
    assert "full" in out and "ERM" in out
