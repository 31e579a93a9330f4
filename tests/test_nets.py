import numpy as np
import pytest

from dccl import autodiff as ad
from dccl import harness, losses, nets
from dccl.autodiff import Tape, Tensor
from dccl.formats import load_checkpoint, save_checkpoint
from dccl.optim import Adam
from dccl.synthdata import gen_rotated_gaussians

import elementary as el
from conftest import generator_tensors, max_rel_err, model_checksum, numerical_gradient


def small_model(seed=0, with_gen=False, batchnorm=True):
    spec = nets.ModelSpec(encoder_hidden=(6, 5), embed_dim=4, head_hidden=6,
                          batchnorm=batchnorm, with_gen=with_gen)
    return nets.Model(2, 3, spec, np.random.default_rng(seed))


def bare_model():
    """One identity-initialized affine layer, no projection head."""
    spec = nets.ModelSpec(encoder_hidden=(2,), embed_dim=2, head_hidden=0)
    model = nets.Model(2, 2, spec, np.random.default_rng(0))
    model.parameters()["enc.0.W"].data = np.eye(2)
    return model


def test_embed_normalizes_identity_encoder():
    model = bare_model()
    out = model.embed(np.array([3.0, 4.0]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_embed_rejects_zero_vector():
    model = bare_model()
    model.parameters()["enc.0.W"].data = np.zeros((2, 2))
    with pytest.raises(ad.DegenerateInputError):
        model.embed(np.array([3.0, 4.0]))


def test_embed_rejects_width_mismatch():
    model = small_model()
    with pytest.raises(ad.ShapeError) as err:
        model.embed(np.ones((4, 3)))
    assert "3" in str(err.value) and "2" in str(err.value)
    # in training mode each view is checked before the views are stacked
    with pytest.raises(ad.ShapeError, match="^batch width 3 does not match encoder input "
                                            "width 2$"):
        model.embed([np.ones((4, 2)), np.ones((4, 3))], training=True)
    with pytest.raises(ad.ShapeError, match="^batch width 3 "):
        model.embed(np.ones(3), training=True)


def test_embed_rows_are_unit_norm():
    model = small_model(seed=3)
    rng = np.random.default_rng(1)
    z = model.embed(rng.standard_normal((5, 2)), training=False)
    assert z.shape == (5, 4)
    assert np.max(np.abs(np.sqrt(np.sum(z.data ** 2, axis=1)) - 1.0)) <= 1e-9


def test_evaluation_embedding_records_nothing_on_a_tape():
    model = small_model(seed=3)
    with Tape() as tape:
        model.watch(tape)
        z = model.embed(np.random.default_rng(1).standard_normal((5, 2)))
    assert tape._ops == []
    assert z.node_id is None


def test_batchnorm_running_stats_update_only_in_training():
    model = small_model(seed=2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 2))
    before = model.stats()["head.bn.running_mean"].copy()
    model.embed(x, training=False)
    assert np.array_equal(model.stats()["head.bn.running_mean"], before)
    model.embed(x, training=True)
    assert not np.array_equal(model.stats()["head.bn.running_mean"], before)


def kl_only(gen, z):
    """gen_loss with zero noise and z_pre = z: the identity decoder
    reconstructs z exactly, so the loss is the mean KL alone."""
    return losses.gen_loss(gen, Tensor(z), z, np.zeros(np.shape(z))).item()


def test_transform_kl_hand_values():
    gen = generator_tensors(2)
    # posterior mean 0, sigma 1, no noise: standard normal vs the prior
    assert kl_only(gen, np.zeros((1, 2))) == pytest.approx(0.0, abs=1e-12)
    # z = (1, 0): kl = 0.5 * (1 + 1 - 1 - 0 + 1 + 0 - 1 - 0) = 0.5
    assert kl_only(gen, np.array([[1.0, 0.0]])) == pytest.approx(0.5, abs=1e-12)


def test_transform_identity_decoder_reconstructs():
    gen = generator_tensors(3)
    z = np.array([[0.2, -0.4, 0.9]])
    # sigma 1: the KL is 0.5 * |z|^2, so a loss of exactly that leaves no
    # room for a reconstruction error
    assert kl_only(gen, z) == pytest.approx(0.5 * np.sum(z * z), abs=1e-15)


def test_transform_rejects_noise_shape_mismatch():
    gen = generator_tensors(3)
    with pytest.raises(ad.ShapeError):
        losses.gen_loss(gen, Tensor(np.zeros((2, 3))), np.zeros((2, 3)), np.zeros((3, 2)))


def test_kl_nonnegative_and_zero_only_at_prior(rng):
    gen = generator_tensors(4)
    for _ in range(50):
        gen["gen.std_bias"] = Tensor(rng.uniform(-1.0, 2.0, 4))
        z = rng.standard_normal((3, 4))
        for row in z:
            assert kl_only(gen, row[None, :]) >= -1e-12
    gen["gen.std_bias"] = Tensor(np.full(4, nets.SOFTPLUS_INV_ONE))
    assert kl_only(gen, np.zeros((1, 4))) == pytest.approx(0.0, abs=1e-12)


def test_transform_gradient_matches_fd():
    gen = generator_tensors(3)
    rng = np.random.default_rng(9)
    gen["gen.std_bias"] = Tensor(rng.uniform(-0.5, 0.5, 3))
    z_data = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 3))

    def loss_value():
        return losses.gen_loss(gen, Tensor(z_data), target, np.zeros((4, 3))).item()

    with Tape() as tape:
        z = tape.watch(Tensor(z_data))
        tape.watch(gen["gen.std_bias"])
        loss = losses.gen_loss(gen, z, target, np.zeros((4, 3)))
    grads = tape.gradients(loss)

    fd_z = numerical_gradient(loss_value, z_data)
    assert max_rel_err(grads[z.node_id], fd_z) <= 1e-4
    fd_bias = numerical_gradient(loss_value, gen["gen.std_bias"].data)
    assert max_rel_err(grads[gen["gen.std_bias"].node_id], fd_bias) <= 1e-4


# --- anchors -----------------------------------------------------------------

@pytest.fixture(scope="module")
def pooled_dataset():
    return gen_rotated_gaussians(3, 2, 30, 0.4, 3.0, 0.3, seed=5)


ANCHOR_SPEC = nets.ModelSpec(encoder_hidden=(16,), embed_dim=8, head_hidden=16)


@pytest.fixture(scope="module")
def anchor(pooled_dataset):
    return harness.build_anchor(pooled_dataset, nets.AnchorConfig(steps=400), ANCHOR_SPEC, 7)


def test_anchor_is_deterministic(pooled_dataset, anchor):
    again = harness.build_anchor(pooled_dataset, nets.AnchorConfig(steps=400), ANCHOR_SPEC, 7)
    assert model_checksum(anchor) == model_checksum(again)
    assert again.provenance == anchor.provenance
    x = pooled_dataset.X[:10]
    assert np.array_equal(anchor.embed(x).data, again.embed(x).data)


def test_anchor_embed_is_detached_and_repeatable(pooled_dataset, anchor):
    x = pooled_dataset.X[:6]
    with Tape() as tape:
        probe = tape.watch(Tensor(np.ones(3)))
        first = anchor.embed(x).data
        second = anchor.embed(x).data
        out = el.reduce_sum(probe * probe)
    grads = tape.gradients(out)
    assert np.array_equal(first, second)
    # nothing of the anchor's forward leaked onto the tape
    for tensor in anchor.parameters().values():
        assert tensor.node_id not in grads
    assert first.shape == (6, 8)
    norms = np.sqrt(np.sum(first ** 2, axis=1))
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_anchor_accuracy_on_separable_pool(pooled_dataset, anchor):
    assert anchor.kind == "anchor"
    assert list(anchor.provenance) == ["seed", "data_hash", "val_accuracy"]
    assert float(anchor.provenance["val_accuracy"]) >= 0.9


def test_anchor_checksum_survives_unrelated_training(pooled_dataset, anchor):
    checksum = model_checksum(anchor)
    # any training step of a *different* model must leave the anchor alone
    model = small_model(seed=1)
    from dccl.autodiff import softmax_cross_entropy

    with Tape() as tape:
        model.watch(tape)
        logits = model.logits(model.embed(pooled_dataset.X[:8, :2], training=True))
        loss = softmax_cross_entropy(logits, np.zeros(8, dtype=int))
    model.descend([Adam()], nets.Model.lockstep([model])[1], tape.gradients(loss))
    assert model_checksum(anchor) == checksum


def test_build_anchor_rejects_empty():
    empty = gen_rotated_gaussians(2, 2, 1, 0.3, 3.0, 0.3).subset([])
    with pytest.raises(ValueError):
        harness.build_anchor(empty, nets.AnchorConfig(steps=1), nets.ModelSpec(), 0)


# --- the flat layout ---------------------------------------------------------

def step_cell(cell, flat, runs, steps, seed=0):
    """`steps` Adam steps of a lockstep cell of `runs` runs on a
    cross-entropy loss; a parameter it leaves out (the generator's) gets a
    zero gradient."""
    rng = np.random.default_rng(seed)
    adams = [Adam(lr=0.05) for _ in range(runs)]
    lead = (runs,) if runs > 1 else ()
    for _ in range(steps):
        with Tape() as tape:
            cell.watch(tape)
            z = cell.embed(rng.standard_normal(lead + (8, 2)), training=True)
            loss = ad.softmax_cross_entropy(cell.logits(z), rng.integers(0, 3, lead + (8,)))
        grads = tape.gradients(loss, stacked=runs > 1)
        for t in cell.parameters().values():
            grads.setdefault(t.node_id, np.zeros(t.shape))
        cell.descend(adams, flat, grads)


@pytest.mark.parametrize("batchnorm", [True, False])
def test_flat_layout_round_trips_every_parameter(batchnorm):
    """Table -> flat row -> views gives back every parameter bit for bit,
    each a view of its span of the row, spans in table order; a lockstep
    cell views the rows of R runs, and as it steps them in place each
    run's model keeps viewing its own row, of the parameters and of the
    running statistics, without being pointed again."""
    models = [small_model(seed=s, with_gen=True, batchnorm=batchnorm) for s in range(3)]
    for s, model in enumerate(models):
        model.embed(np.random.default_rng(s).standard_normal((8, 2)), training=True)
    tables = [model.get_state() for model in models]
    names = list(models[0].parameters())
    cell, flat = nets.Model.lockstep(models)
    for r, table in enumerate(tables):
        assert flat[r].tobytes() == np.concatenate([table[n].reshape(-1) for n in names]).tobytes()
        for name, t in cell.parameters().items():
            assert t.data[r].tobytes() == table[name].tobytes(), name
            assert np.shares_memory(t.data, flat)
        for name, arr in cell.stats().items():
            assert arr[r].tobytes() == table[name].tobytes(), name

    step_cell(cell, flat, runs=3, steps=3)
    for r, (model, table) in enumerate(zip(models, tables)):
        assert model.get_state().keys() == table.keys()
        assert flat[r].tobytes() != np.concatenate([table[n].reshape(-1) for n in names]).tobytes()
        assert flat[r].tobytes() == np.concatenate(
            [t.data.reshape(-1) for t in model.parameters().values()]).tobytes()
        for name, t in model.parameters().items():
            assert t.data.shape == table[name].shape
            assert np.shares_memory(t.data, flat[r])
            assert t.data.tobytes() == cell.parameters()[name].data[r].tobytes(), name
        for name, arr in model.stats().items():
            assert arr.shape == table[name].shape
            assert np.shares_memory(arr, cell.stats()[name][r])
            assert arr.tobytes() == cell.stats()[name][r].tobytes(), name

    alone, stepped = models[0], flat
    cell, flat = nets.Model.lockstep([alone])
    assert cell is alone and flat.tobytes() == stepped[:1].tobytes()
    for name, t in alone.parameters().items():
        assert t.data.shape == tables[0][name].shape
        assert np.shares_memory(t.data, flat)


@pytest.mark.parametrize("runs", [1, 3])
def test_a_run_state_does_not_move_as_its_cell_steps(runs):
    """A cell steps its runs' parameters and running statistics in place,
    and checkpoint selection keeps a run's `get_state()` across later
    steps: the state must be a copy."""
    models = [small_model(seed=s) for s in range(runs)]
    cell, flat = nets.Model.lockstep(models)
    step_cell(cell, flat, runs, steps=1)
    state = models[-1].get_state()
    kept = {name: arr.copy() for name, arr in state.items()}
    step_cell(cell, flat, runs, steps=1, seed=1)
    live = models[-1].get_state()
    for name, arr in state.items():
        assert arr.tobytes() == kept[name].tobytes(), name
        assert live[name].tobytes() != arr.tobytes(), name


def test_set_state_keeps_a_run_viewing_its_row():
    """Loading a state into a lockstep run's model writes into its rows of
    the cell, so the cell's later steps still move that run."""
    models = [small_model(seed=s) for s in range(2)]
    cell, flat = nets.Model.lockstep(models)
    step_cell(cell, flat, runs=2, steps=1)
    models[1].set_state(models[1].get_state())
    loaded = models[1].get_state()
    step_cell(cell, flat, runs=2, steps=1, seed=1)
    for name, t in models[1].parameters().items():
        assert np.shares_memory(t.data, flat[1]), name
        assert t.data.tobytes() != loaded[name].tobytes(), name
    for name, arr in models[1].stats().items():
        assert np.shares_memory(arr, cell.stats()[name]), name
        assert arr.tobytes() != loaded[name].tobytes(), name


# --- checkpoints -------------------------------------------------------------

def test_model_checkpoint_roundtrip(tmp_path):
    model = small_model(seed=4, with_gen=True)
    # train-mode forward so running stats are nontrivial
    model.embed(np.random.default_rng(0).standard_normal((16, 2)), training=True)
    path = tmp_path / "model.txt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert model_checksum(loaded) == model_checksum(model)
    again = tmp_path / "model2.txt"
    save_checkpoint(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_anchor_checkpoint_roundtrip(tmp_path, anchor, pooled_dataset):
    path = tmp_path / "anchor.txt"
    save_checkpoint(anchor, path)
    loaded = load_checkpoint(path)
    assert loaded.kind == "anchor"
    assert loaded.provenance == anchor.provenance
    x = pooled_dataset.X[:5]
    assert np.array_equal(loaded.embed(x).data, anchor.embed(x).data)


def test_corrupt_checkpoint_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# dccl-checkpoint v1\nkind = model\n")
    from dccl.formats import FormatError

    with pytest.raises(FormatError):
        load_checkpoint(path)
