import numpy as np
import pytest

from dccl import synthdata as sd
from dccl.harness import DatasetSpec
from dccl.options import check_ranges


# --- toy family --------------------------------------------------------------

def test_example31_support_containment():
    for domain in (1, 2):
        ds = sd.gen_example31(200, domain, seed=3)
        for x, label in zip(ds.X, ds.labels):
            y = 2 * int(label) - 1
            wide = sorted((1.25 * y, 1.75 * y))
            narrow = sorted((0.25 * y, 0.75 * y))
            first, second = (wide, narrow) if domain == 1 else (narrow, wide)
            assert first[0] < x[0] < first[1]
            assert second[0] < x[1] < second[1]


def test_example31_balanced_and_deterministic():
    a = sd.gen_example31(64, 1, seed=9)
    b = sd.gen_example31(64, 1, seed=9)
    assert np.array_equal(a.X, b.X)
    assert np.sum(a.labels == 0) == np.sum(a.labels == 1) == 64


def test_example31_rejects_bad_domain():
    with pytest.raises(ValueError):
        sd.gen_example31(10, 3)
    # the class size is a dataset field, so its range is checked on the spec
    with pytest.raises(ValueError, match=r"^n_per_class must be at least 1, got 0$"):
        check_ranges(DatasetSpec(kind="example31", n_per_class=0))


def test_weak_map_hand_value():
    # d1, y=+1, x1=1.5: angle 0.5*pi, point (0, 1)
    point = sd.toy_optimal_map("weak", np.array([[1.5, 0.5]]), y_sign=np.array([1.0]))
    assert np.allclose(point, [[0.0, 1.0]], atol=1e-12)


def test_weak_map_transfer_is_exactly_zero():
    d1 = sd.gen_example31(500, 1, seed=0)
    d2 = sd.gen_example31(500, 2, seed=1)
    assert sd.toy_map_accuracy("weak", d1) == 1.0
    assert sd.toy_map_accuracy("weak", d2) == 0.0


def test_aggressive_map_transfers_exactly():
    d1 = sd.gen_example31(500, 1, seed=0)
    d2 = sd.gen_example31(500, 2, seed=1)
    assert sd.toy_map_accuracy("aggressive", d1) == 1.0
    assert sd.toy_map_accuracy("aggressive", d2) == 1.0


def test_weak_map_aligns_equal_inputs():
    # equal x1 and equal label => identical embedding (perfect alignment on d1)
    x = np.array([[1.4, 0.3], [1.4, 0.7]])
    y = np.array([1.0, 1.0])
    points = sd.toy_optimal_map("weak", x, y_sign=y)
    assert np.array_equal(points[0], points[1])


def test_map_outputs_on_unit_circle():
    ds = sd.gen_example31_both(100, seed=4)
    y = sd.label_sign(ds.labels)
    for kind in ("weak", "aggressive"):
        pts = sd.toy_optimal_map(kind, ds.X, y_sign=y)
        assert np.allclose(np.sum(pts * pts, axis=1), 1.0, atol=1e-12)


# --- rotated Gaussians -------------------------------------------------------

def test_rotated_gaussians_shapes_and_determinism():
    a = sd.gen_rotated_gaussians(4, 3, 25, 0.35, 3.0, 0.3, seed=0)
    b = sd.gen_rotated_gaussians(4, 3, 25, 0.35, 3.0, 0.3, seed=0)
    assert np.array_equal(a.X, b.X)
    assert len(a) == 4 * 3 * 25
    assert a.dim == 2
    for m in range(4):
        assert len(a.domain_indices(m)) == 75


def test_rotated_gaussians_rejects_bad_args():
    with pytest.raises(ValueError, match=r"^domains must be at least 2, got 1$"):
        check_ranges(DatasetSpec(n_domains=1, n_classes=3, n_per_domain_class=10,
                                 rotation_step=0.3, class_separation=3.0, noise_std=0.3))
    with pytest.raises(ValueError, match=r"^per_domain_class must be at least 1, got 0$"):
        check_ranges(DatasetSpec(n_domains=4, n_classes=3, n_per_domain_class=0,
                                 rotation_step=0.3, class_separation=3.0, noise_std=0.3))


def test_rotation_step_zero_means_identical_distributions():
    ds = sd.gen_rotated_gaussians(3, 2, 400, 0.0, 3.0, 0.25, seed=1)
    # per-domain class means coincide up to sampling noise
    means = {
        (m, c): ds.X[(ds.domains == m) & (ds.labels == c)].mean(axis=0)
        for m in range(3) for c in range(2)
    }
    for c in range(2):
        for m in range(1, 3):
            assert np.linalg.norm(means[(m, c)] - means[(0, c)]) < 0.1


# --- augmentation ------------------------------------------------------------

def test_intensity_zero_is_identity():
    x = np.array([[0.1, -2.0], [3.5, 0.0]])
    rng = np.random.default_rng(0)
    for kind in (sd.ADDITIVE, sd.SCALING):
        out = sd.augment(x, sd.AugmentationSpec(kind=kind, intensity=0.0), rng)
        assert np.array_equal(out, x)


def test_additive_jitter_distribution():
    rng = np.random.default_rng(5)
    spec = sd.AugmentationSpec(kind=sd.ADDITIVE, intensity=0.5)
    x = np.zeros((100_000, 1))
    out = sd.augment(x, spec, rng)
    assert abs(out.mean()) < 0.01
    assert out.min() >= -0.5 and out.max() <= 0.5


def test_scaling_jitter_bounds():
    rng = np.random.default_rng(6)
    spec = sd.AugmentationSpec(kind=sd.SCALING, intensity=0.1)
    out = sd.augment(np.ones((10_000, 2)), spec, rng)
    assert out.min() >= 0.9 and out.max() <= 1.1


def test_augmentation_spec_validation():
    with pytest.raises(ValueError):
        sd.AugmentationSpec(kind="blur")
    with pytest.raises(ValueError):
        sd.AugmentationSpec(kind=sd.ADDITIVE, intensity=-0.1)


# --- batching ----------------------------------------------------------------

def test_batches_are_domain_balanced():
    ds = sd.gen_rotated_gaussians(3, 2, 30, 0.3, 3.0, 0.3, seed=2)
    stream = sd.make_batches(ds, 12, seed=0)
    for _ in range(40):
        idx = next(stream)
        assert len(idx) == 12
        doms, counts = np.unique(ds.domains[idx], return_counts=True)
        assert list(doms) == [0, 1, 2]
        assert all(c == 4 for c in counts)


def test_batch_size_divisibility_rejected_with_suggestion():
    ds = sd.gen_rotated_gaussians(3, 2, 30, 0.3, 3.0, 0.3, seed=2)
    with pytest.raises(ValueError) as err:
        next(sd.make_batches(ds, 10, seed=0))
    assert "9" in str(err.value) and "12" in str(err.value)


def test_batch_stream_is_seeded():
    ds = sd.gen_rotated_gaussians(3, 2, 30, 0.3, 3.0, 0.3, seed=2)
    a = sd.make_batches(ds, 12, seed=11)
    b = sd.make_batches(ds, 12, seed=11)
    for _ in range(25):
        assert np.array_equal(next(a), next(b))


def test_epoch_covers_each_sample_at_most_once_per_domain():
    ds = sd.gen_rotated_gaussians(2, 2, 12, 0.3, 3.0, 0.3, seed=2)
    stream = sd.make_batches(ds, 8, seed=0)
    # one domain holds 24 samples -> 6 batches of 4 before any repeat
    seen = []
    for _ in range(6):
        idx = next(stream)
        seen.extend(i for i in idx if ds.domains[i] == 0)
    assert len(seen) == len(set(seen)) == 24


def test_sgn_convention_at_zero():
    assert sd.sgn(0.0) == 1.0
    assert np.array_equal(sd.sgn(np.array([-0.5, 0.0, 0.5])), [-1.0, 1.0, 1.0])
