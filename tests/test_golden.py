"""Golden SHA-256 hashes of the artifacts of three small CLI runs.

A change that keeps these hashes keeps every output byte: the training
curve, the selected checkpoint, the config snapshot (which also pins all
config key names and defaults), the ablation summary, the grid anchor
and an embedding dump.  A change that moves them on purpose must say why
and replace the hashes.

The runs are small enough to check in a few seconds, so refactors can
use `python -m pytest -m "not slow"` as their inner loop.
"""

import hashlib

import pytest

from dccl.cli import main

MICRO = """\
experiment = golden
output_dir = runs
seeds = 0
dataset.domains = 3
dataset.classes = 2
dataset.per_domain_class = 12
dataset.rotation_step = 0.4
dataset.class_separation = 2.5
model.encoder_hidden = 12
model.embed_dim = 6
model.head_hidden = 12
optim.lr = 1e-3
optim.batch_size = 8
optim.eval_every = 20
anchor.steps = 30
anchor.batch_size = 12
"""

TRAIN = MICRO + """\
optim.steps = 200
loss.cdc = true
loss.pma = true
loss.gt = true
loss.aggressive_augmentation = true
loss.pma_probability = 0.3
"""

ABLATE = MICRO + "optim.steps = 40\n"

TRAIN_HASHES = {
    "losses.csv":
        "1ad1a6086fb77b6ed0dcfaa026a942793772b7c7fb28b2a99830bb5c756cf081",
    "result.csv":
        "d34c096cdf8e807d62f2e4a67fde39432934a1d78e2a939792c2aa8ca5889ee1",
    "checkpoint.txt":
        "816262be753da869542d1b8681a061a08b59ee41352f44fadd88aa99dc07f677",
    "config.txt":
        "5f638de4c0ef2977f0d3f26294655d06570735692c09b0b2ff96849b29690477",
}

ABLATE_HASHES = {
    "summary.csv":
        "bbb785d926d45c9ec138267bebbed037c4ca7804f2c4c35c125c8eecf3421995",
    "anchors/anchor_seed0.txt":
        "3fc97bb763750ad7d4b0e1ceb6620a61c08a0ae5c84f5f5a34fc483db18689c2",
}

DUMP_HASH = "03a6fc399f3896f401b6f7a3083d3aa7ded5a56cbcd0604c6f48156cc59ecf80"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # config.txt records output_dir, so run from a fixed relative path
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_train_and_dump_hashes(workdir, capsys):
    (workdir / "train.cfg").write_text(TRAIN)
    assert main(["train", "--config", "train.cfg"]) == 0
    run_dir = workdir / "runs" / "golden" / "train" / "seed0"
    assert {name: sha256(run_dir / name) for name in TRAIN_HASHES} == TRAIN_HASHES

    assert main(["gen-data", "--domains", "3", "--classes", "2",
                 "--per-domain-class", "8", "--out", "data.txt"]) == 0
    assert main(["dump-embeddings", "--checkpoint", str(run_dir / "checkpoint.txt"),
                 "--data", "data.txt", "--out", "emb.txt"]) == 0
    assert sha256(workdir / "emb.txt") == DUMP_HASH


def test_ablate_hashes(workdir, capsys):
    (workdir / "ablate.cfg").write_text(ABLATE)
    assert main(["ablate", "--config", "ablate.cfg", "--workers", "2"]) == 0
    grid_dir = workdir / "runs" / "golden"
    assert {name: sha256(grid_dir / name) for name in ABLATE_HASHES} == ABLATE_HASHES
