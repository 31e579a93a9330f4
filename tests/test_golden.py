"""Golden SHA-256 hashes of the artifacts of eight small CLI runs.

A change that keeps these hashes keeps every output byte: the training
curve, the selected checkpoint, the config snapshot (which also pins all
config key names and defaults), the leave-one-domain-out table and run
directories, the ablation summary, the grid anchor, and embedding dumps
of the trained model and of the grid anchor, the two-domain toy dump
and the `toy` command's output.  The
initial-model pins fix the draws and the array order of a freshly built
`Model`, with and without the head and the generator.  A change that
moves them on purpose must say why and replace the hashes.

The runs are small enough to check in a few seconds, so refactors can
use `python -m pytest -m "not slow"` as their inner loop.

The hashes of trained runs hold for the FMA kernels of OpenBLAS
(SkylakeX, Haswell), which numpy picks at run time; older kernels give
other matrix-product bits, so each failure message names the kernel in
use.  One test forces the kernel of a child process with
`OPENBLAS_CORETYPE`: Haswell must give the hashes, and an older kernel
must give the same bits on a rerun.
"""

import ctypes
import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dccl
from dccl.cli import main
from dccl.nets import Model, ModelSpec

from conftest import model_checksum

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

LOO = ABLATE + """\
loss.cdc = true
loss.pma = true
loss.gt = true
loss.aggressive_augmentation = true
"""

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

LOO_STDOUT_HASH = "b797850487bdc43313e72e0d8d3c91ddb9dd35c721b67e6757bfdc4eed179973"

# relative to runs/golden/loo
LOO_HASHES = {
    "summary.csv":
        "35ea79422488e85de121a570a346636d50e1ed6c88282566046bb7c0cce5a047",
    "seed0/config.txt":
        "ea9e35ae02883b39eb9e104a79c4e9217c75f5e327fc9e50986128577fda8086",
    "seed0/holdout0/losses.csv":
        "20667a17e62d5bcd88212c655841d25e82fa8bfb089edee1f4292c2414478b45",
    "seed0/holdout0/result.csv":
        "6e445efc6efbd088dc30b975948be8aa27d99f276bfd121839f02e6430d22176",
    "seed0/holdout0/checkpoint.txt":
        "3cfc71181e5911519fb85ee4e827d92322619b65d4d345f440e6bb56f611038f",
    "seed0/holdout1/losses.csv":
        "e7f3cb25967d90881c4e15b06e79d5c50fbcc40a6053abbe78fb16588725519f",
    "seed0/holdout1/result.csv":
        "03e384109af6e057e373c847c381e247706aa473ed98985651f11ecab547d707",
    "seed0/holdout1/checkpoint.txt":
        "ff59b7d1d67666f7be9f0a390860242f87fc687969ddc5d179c8a36138d4b048",
    "seed0/holdout2/losses.csv":
        "325f97e7c755704e38c8194eff8f208aacf535ad9415fba5120ad45e12aefd40",
    "seed0/holdout2/result.csv":
        "d67cb1ab8f0449025bcff198dd86004614812a2583332d73728bf68cb62855c6",
    "seed0/holdout2/checkpoint.txt":
        "4564388526003258f0a2b25e3b4253ac7fc11affe4233d261d3e1de55e117db4",
}

DUMP_HASH = "03a6fc399f3896f401b6f7a3083d3aa7ded5a56cbcd0604c6f48156cc59ecf80"

ANCHOR_DUMP_HASH = "67fe1b51f777e4657e1a3d7e105d3d9d9c879672956f90f5c3b21d259a836a38"

# the two-domain toy family: its dataset dump, and the stdout of `dccl toy`
# per variant; no matrix product is involved, so these hold on any kernel
EXAMPLE31_DUMP_HASH = "032e769c8e3d2c4d43d05442dec69d288bb60d24b346ed1051ebf81663dc7f9e"
TOY_STDOUT_HASHES = {
    "weak": "5ccfdc553166ef6b832710dc6070a190c29e1d8e1621ebebd655eab96c37863e",
    "aggressive": "c3f1207e40f31330c5922f50db524f7c276d899a3a1de546de369316e24fa63b",
}

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


@functools.cache
def blas_kernel():
    """The kernel that numpy's bundled OpenBLAS picked at run time, or
    `unknown` when numpy carries no such library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def kernel_note():
    return (f"numpy's OpenBLAS runs its {blas_kernel()} kernel here; the hashes of "
            "trained runs hold for its FMA kernels (SkylakeX, Haswell) only")


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
    assert {name: sha256(run_dir / name) for name in TRAIN_HASHES} == TRAIN_HASHES, kernel_note()

    assert main(["gen-data", "--domains", "3", "--classes", "2",
                 "--per-domain-class", "8", "--out", "data.txt"]) == 0
    assert main(["dump-embeddings", "--checkpoint", str(run_dir / "checkpoint.txt"),
                 "--data", "data.txt", "--out", "emb.txt"]) == 0
    assert sha256(workdir / "emb.txt") == DUMP_HASH, kernel_note()


def test_variant_train_hashes(workdir, capsys):
    (workdir / "variant.cfg").write_text(VARIANT)
    assert main(["train", "--config", "variant.cfg"]) == 0
    run_dir = workdir / "runs" / "golden" / "train" / "seed0"
    assert ({name: sha256(run_dir / name) for name in VARIANT_HASHES}
            == VARIANT_HASHES), kernel_note()


def test_ablate_hashes(workdir, capsys):
    (workdir / "ablate.cfg").write_text(ABLATE)
    assert main(["ablate", "--config", "ablate.cfg", "--workers", "2"]) == 0
    grid_dir = workdir / "runs" / "golden"
    assert ({name: sha256(grid_dir / name) for name in ABLATE_HASHES}
            == ABLATE_HASHES), kernel_note()

    assert main(["gen-data", "--domains", "3", "--classes", "2",
                 "--per-domain-class", "8", "--out", "data.txt"]) == 0
    anchor = grid_dir / "anchors" / "anchor_seed0.txt"
    assert main(["dump-embeddings", "--checkpoint", str(anchor),
                 "--data", "data.txt", "--out", "anchor_emb.txt"]) == 0
    assert sha256(workdir / "anchor_emb.txt") == ANCHOR_DUMP_HASH, kernel_note()


def test_loo_hashes(workdir, capsys):
    (workdir / "loo.cfg").write_text(LOO)
    assert main(["loo", "--config", "loo.cfg"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == LOO_STDOUT_HASH, kernel_note()
    loo_dir = workdir / "runs" / "golden" / "loo"
    assert {name: sha256(loo_dir / name) for name in LOO_HASHES} == LOO_HASHES, kernel_note()
    # the grid's anchor: same data, model and anchor settings as the ablate run
    anchor = "anchors/anchor_seed0.txt"
    assert sha256(loo_dir.parent / anchor) == ABLATE_HASHES[anchor], kernel_note()


def test_example31_dump_hash(workdir, capsys):
    assert main(["gen-data", "--kind", "example31", "--n-per-class", "8", "--seed", "3",
                 "--out", "example31.txt"]) == 0
    assert sha256(workdir / "example31.txt") == EXAMPLE31_DUMP_HASH


@pytest.mark.parametrize("variant", sorted(TOY_STDOUT_HASHES))
def test_toy_stdout_hashes(variant, capsys):
    assert main(["toy", "--variant", variant, "--n", "16", "--seed", "5"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == TOY_STDOUT_HASHES[variant]


@pytest.mark.parametrize("spec, checksum, param_names, stat_names", INITIAL_MODELS)
def test_initial_model_hashes(spec, checksum, param_names, stat_names):
    model = Model(2, 3, spec, np.random.default_rng(11))
    assert model_checksum(model) == checksum, kernel_note()
    assert list(model.parameters()) == param_names
    assert list(model.stats()) == stat_names


def train_under_kernel(cwd, coretype):
    """name -> bytes of the golden `train` artifacts, from a child process
    whose OpenBLAS runs its `coretype` kernel."""
    cwd.mkdir()
    (cwd / "train.cfg").write_text(TRAIN)
    src = str(Path(dccl.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "dccl.cli", "train", "--config", "train.cfg"],
                   cwd=cwd, env=env, check=True, capture_output=True, timeout=300)
    run_dir = cwd / "runs" / "golden" / "train" / "seed0"
    return {name: (run_dir / name).read_bytes() for name in TRAIN_HASHES}


# a CPU whose default kernel is one of these also runs the older kernels
@pytest.mark.skipif(blas_kernel() not in ("SkylakeX", "Haswell"),
                    reason="needs numpy's OpenBLAS on a CPU with the Haswell instructions")
def test_train_bits_hold_on_each_blas_kernel(tmp_path):
    haswell = train_under_kernel(tmp_path / "haswell", "Haswell")
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in haswell.items()} == TRAIN_HASHES
    first, second = (train_under_kernel(tmp_path / f"prescott{i}", "Prescott") for i in (0, 1))
    assert first == second
    # the forced kernel took effect: without FMA the training curve moves
    assert first["losses.csv"] != haswell["losses.csv"]
