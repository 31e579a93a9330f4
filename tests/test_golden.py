"""Golden SHA-256 hashes of the artifacts of four small CLI runs.

A change that keeps these hashes keeps every output byte: the training
curve, the selected checkpoint, the config snapshot (which also pins all
config key names and defaults), the ablation summary, the grid anchor,
and embedding dumps of the trained model and of the grid anchor.  The
initial-model pins fix the draws and the array order of a freshly built
`Model`, with and without the head and the generator.  A change that
moves them on purpose must say why and replace the hashes.

The runs are small enough to check in a few seconds, so refactors can
use `python -m pytest -m "not slow"` as their inner loop.
"""

import hashlib

import numpy as np
import pytest

from dccl.cli import main
from dccl.nets import Model, ModelSpec

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

# the branches the default golden run leaves out: anchor negatives, the
# standard InfoNCE denominator, scaling jitter and a head without batch norm
VARIANT = MICRO + """\
optim.steps = 120
loss.cdc = true
loss.pma = true
loss.gt = true
loss.aggressive_augmentation = true
loss.anchor_negatives = true
loss.denominator_mode = standard-infonce
augment.kind = scaling
model.batchnorm = false
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

VARIANT_HASHES = {
    "losses.csv":
        "45aeb8936a94b7a31bcaafddc0f8510ad9e63c726319c577bcdd81a503dc8b41",
    "result.csv":
        "8e7cea7d7568507d63a84228b5ff1fd2bbc89eac1a4927603893827b01869ae5",
    "checkpoint.txt":
        "ddf6fbe88f97e16131e3ce2497ad6bbadc2c01a7960283febef7336e86ff8778",
}

ABLATE_HASHES = {
    "summary.csv":
        "bbb785d926d45c9ec138267bebbed037c4ca7804f2c4c35c125c8eecf3421995",
    "anchors/anchor_seed0.txt":
        "3fc97bb763750ad7d4b0e1ceb6620a61c08a0ae5c84f5f5a34fc483db18689c2",
}

DUMP_HASH = "03a6fc399f3896f401b6f7a3083d3aa7ded5a56cbcd0604c6f48156cc59ecf80"

ANCHOR_DUMP_HASH = "67fe1b51f777e4657e1a3d7e105d3d9d9c879672956f90f5c3b21d259a836a38"

ENCODER = ["enc.0.W", "enc.0.b", "enc.1.W", "enc.1.b"]
HEAD = ["head.l1.W", "head.l1.b", "head.l2.W", "head.l2.b"]
BN = ["head.bn.gamma", "head.bn.beta"]
GEN = ["gen.std_bias", "gen.dec.W", "gen.dec.b"]
CLS = ["cls.W", "cls.b"]

# spec -> (checksum, parameter names, running-statistic names) of
# Model(2, 3, spec, default_rng(11))
INITIAL_MODELS = [
    (ModelSpec(encoder_hidden=(6, 5), embed_dim=4, head_hidden=6),
     "d7957a7e87ec283a60823241ad20fde9982215efd4faa0885f432beab4e5a184",
     ENCODER + HEAD[:2] + BN + HEAD[2:] + CLS,
     ["head.bn.running_mean", "head.bn.running_var"]),
    (ModelSpec(encoder_hidden=(6, 5), embed_dim=4, head_hidden=6, batchnorm=False,
               with_gen=True),
     "7c4d00c4943c7bfcb4dfeb57cc7beb074a41e9c83b93e674ebfc332a8573036a",
     ENCODER + HEAD + CLS + GEN, []),
    (ModelSpec(encoder_hidden=(5, 3), head_hidden=0),
     "63e37bceb1123c1680bc404e4426b0974da583e67ec04e6e5499af88bc4e39c7",
     ENCODER + CLS, []),
    (ModelSpec(encoder_hidden=(5, 3), head_hidden=0, with_gen=True),
     "032d171da94bdca36b3287df9fa1fa6ea397f8e4494f311f42d6ace7b68f2061",
     ENCODER + CLS + GEN, []),
]


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


def test_variant_train_hashes(workdir, capsys):
    (workdir / "variant.cfg").write_text(VARIANT)
    assert main(["train", "--config", "variant.cfg"]) == 0
    run_dir = workdir / "runs" / "golden" / "train" / "seed0"
    assert {name: sha256(run_dir / name) for name in VARIANT_HASHES} == VARIANT_HASHES


def test_ablate_hashes(workdir, capsys):
    (workdir / "ablate.cfg").write_text(ABLATE)
    assert main(["ablate", "--config", "ablate.cfg", "--workers", "2"]) == 0
    grid_dir = workdir / "runs" / "golden"
    assert {name: sha256(grid_dir / name) for name in ABLATE_HASHES} == ABLATE_HASHES

    assert main(["gen-data", "--domains", "3", "--classes", "2",
                 "--per-domain-class", "8", "--out", "data.txt"]) == 0
    anchor = grid_dir / "anchors" / "anchor_seed0.txt"
    assert main(["dump-embeddings", "--checkpoint", str(anchor),
                 "--data", "data.txt", "--out", "anchor_emb.txt"]) == 0
    assert sha256(workdir / "anchor_emb.txt") == ANCHOR_DUMP_HASH


@pytest.mark.parametrize("spec, checksum, param_names, stat_names", INITIAL_MODELS)
def test_initial_model_hashes(spec, checksum, param_names, stat_names):
    model = Model(2, 3, spec, np.random.default_rng(11))
    assert model.checksum() == checksum
    assert list(model.parameters()) == param_names
    assert list(model.stats()) == stat_names
