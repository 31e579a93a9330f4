from pathlib import Path

import numpy as np
import pytest

from dccl.cli import main
from dccl.config import SCHEMA, load_config, parse_config_text
from dccl.formats import FormatError, read_dataset, read_embeddings


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
        assert field.help
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


def test_train_with_diverging_anchor_is_runtime_failure(tmp_path, capsys):
    path = write_config(tmp_path, "loss.pma = true\nanchor.lr = 1e200\n")
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(path)]) == 2
    assert "runtime failure: non-finite anchor loss" in capsys.readouterr().err


def test_degenerate_input_during_training_is_runtime_failure(tmp_path, capsys, monkeypatch):
    from dccl import cli
    from dccl.autodiff import DegenerateInputError

    def degenerate(cfg, run_dir=None):
        raise DegenerateInputError("cannot normalize vector with norm 0 < 1e-12")

    monkeypatch.setattr(cli, "train", degenerate)
    assert main(["train", "--config", str(write_config(tmp_path))]) == 2
    assert "runtime failure: cannot normalize" in capsys.readouterr().err


def test_ablate_divergence_in_a_worker_is_runtime_failure(tmp_path, capsys):
    path = write_config(tmp_path, "optim.lr = 1e200\n")
    with np.errstate(all="ignore"):
        assert main(["ablate", "--config", str(path), "--workers", "2"]) == 2
    assert "runtime failure: non-finite loss" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_connectivity_non_finite_dump_names_line(tmp_path, capsys, bad):
    dump = tmp_path / "bad.txt"
    dump.write_text("# dccl-dump v1 dim=2 classes=1 domains=1\n"
                    f"0,0,0,1.0,2.0\n1,0,0,0.5,0.5\n2,0,0,{bad},1.0\n3,0,0,0.0,1.0\n")
    assert main(["connectivity", "--dump", str(dump)]) == 1
    assert f"{dump}:4: non-finite coordinate" in capsys.readouterr().err


def test_dataset_dump_with_non_finite_coordinate_rejected(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("# dccl-data v1 generator=x domains=1 classes=1 dim=2 seed=0 params=\n"
                    "0,0,1.0,2.0\n\n0,0,nan,1.0\n")
    with pytest.raises(FormatError, match=":4: non-finite coordinate"):
        read_dataset(data)


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
