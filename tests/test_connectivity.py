import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from dccl import connectivity as cn

from conftest import brute_force_threshold, dense_pairwise_stats, dense_threshold
from elementary import intra_class_variance

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def point_sets(draw, elements):
    """k x d point sets, k >= 2, with some rows copied over others so that
    duplicate points, zero distances and tied edges turn up."""
    k = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    pts = draw(hnp.arrays(np.float64, (k, d), elements=elements))
    copies = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                           max_size=k))
    for src, dst in copies:
        pts[dst] = pts[src]
    return pts


@st.composite
def collinear_sets(draw):
    """k x d points on one line at integer steps, so that equal steps tie
    edges and equal positions duplicate points."""
    k = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    steps = np.array(draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k)), dtype=float)
    base = draw(hnp.arrays(np.float64, d, elements=st.integers(-8, 8).map(lambda v: v / 4.0)))
    direction = draw(hnp.arrays(np.float64, d, elements=st.sampled_from([-1.0, 0.5, 1.0, 2.0])))
    return base + steps[:, None] * direction


def records_from(vectors, class_ids, domain_ids=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    domain_ids = domain_ids if domain_ids is not None else [0] * len(vectors)
    return [
        cn.EmbeddingRecord(i, int(c), int(d), vectors[i])
        for i, (c, d) in enumerate(zip(class_ids, domain_ids))
    ]


def test_collinear_fixture():
    pts = np.array([[0.0], [1.0], [3.0]])
    mu, sigma, count = cn.pairwise_stats(pts, cn.condensed_distances(pts))
    assert count == 3
    assert mu == pytest.approx(2.0)
    assert sigma == pytest.approx(math.sqrt(2.0 / 3.0))
    assert cn.connecting_threshold(pts, cn.condensed_distances(pts)) == pytest.approx(2.0)
    # score (tau - mu) / sigma == 0 exactly
    report = cn.connectivity_report(records_from(pts, [0, 0, 0]))
    assert report.rows[0].score == pytest.approx(0.0, abs=1e-12)


def test_unit_square_fixture():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mu, sigma, count = cn.pairwise_stats(pts, cn.condensed_distances(pts))
    assert count == 6
    assert mu == pytest.approx((4.0 + 2.0 * math.sqrt(2.0)) / 6.0)
    assert cn.connecting_threshold(pts, cn.condensed_distances(pts)) == pytest.approx(1.0)


def test_two_points():
    pts = np.array([[0.0, 0.0], [0.3, 0.4]])
    assert cn.connecting_threshold(pts, cn.condensed_distances(pts)) == pytest.approx(0.5)


def test_two_identical_points_undefined_score():
    report = cn.connectivity_report(records_from([[1.0, 1.0], [1.0, 1.0]], [0, 0]))
    row = report.rows[0]
    assert row.mu == 0.0 and row.sigma == 0.0 and row.score is None
    assert report.mean_score is None


def test_mst_matches_brute_force_on_random_sets(rng):
    for trial in range(200):
        k = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        pts = rng.standard_normal((k, d)) * rng.uniform(0.5, 3.0)
        tau = cn.connecting_threshold(pts, cn.condensed_distances(pts))
        assert tau == brute_force_threshold(pts)


@PROPERTY
@given(point_sets(st.floats(-1e3, 1e3)))
@example(np.array([[0.0], [1.0]]))
@example(np.zeros((5, 3)))
def test_kernels_match_dense_reference_bit_for_bit(pts):
    assert cn.pairwise_stats(pts, cn.condensed_distances(pts)) == dense_pairwise_stats(pts)
    assert cn.connecting_threshold(pts, cn.condensed_distances(pts)) == dense_threshold(pts)


@pytest.mark.parametrize("d", [7, 8, 9, 127, 128, 129, 300])
def test_kernels_match_dense_reference_on_long_rows(rng, d):
    # rows of 8 and 128 or more values switch numpy's summation to its
    # unrolled and blocked pairwise forms
    pts = rng.standard_normal((30, d))
    assert cn.pairwise_stats(pts, cn.condensed_distances(pts)) == dense_pairwise_stats(pts)
    assert cn.connecting_threshold(pts, cn.condensed_distances(pts)) == dense_threshold(pts)


@PROPERTY
@given(point_sets(st.integers(-20, 20).map(lambda v: v / 4.0)))
def test_kernels_agree_with_scipy(pts):
    dists = pdist(pts)
    mu, sigma, count = cn.pairwise_stats(pts, cn.condensed_distances(pts))
    assert count == len(dists)
    assert mu == pytest.approx(dists.mean(), rel=1e-12, abs=1e-12)
    assert sigma == pytest.approx(dists.std(), rel=1e-12, abs=1e-12)
    # csgraph reads a zero entry as a missing edge, so merge duplicate
    # points first: they only add zero-length edges to the tree
    unique = np.unique(pts, axis=0)
    want = 0.0
    if len(unique) > 1:
        want = minimum_spanning_tree(squareform(pdist(unique))).data.max()
    tau = cn.connecting_threshold(pts, cn.condensed_distances(pts))
    assert tau == pytest.approx(want, rel=1e-12)


def test_kernels_hold_no_dense_distance_array():
    k, d = 2000, 16
    pts = np.random.default_rng(0).standard_normal((k, d))
    # numpy reports its buffers to tracemalloc; a k x k x d array would
    # take k * k * d * 8 = 512 MB.  Each peak spans the fill and the kernel.
    bounds = {cn.connecting_threshold: 3 * 4 * k * k,
              cn.pairwise_stats: 3 * 4 * k * k}
    tracemalloc.start()
    try:
        for kernel, bound in bounds.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            kernel(pts, cn.condensed_distances(pts))
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= bound, f"{kernel.__name__} peaked at {peak} bytes > {bound}"
    finally:
        tracemalloc.stop()


def test_pairwise_stats_keeps_one_condensed_vector():
    # the std must not allocate a second k(k-1)/2 vector for the deviations
    k, d = 2000, 16
    pts = np.random.default_rng(1).standard_normal((k, d))
    condensed = k * (k - 1) // 2 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cn.pairwise_stats(pts, cn.condensed_distances(pts))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * condensed, f"peaked at {peak / condensed:.2f} condensed vectors"


@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "threaded"])
def test_overflowing_distances_raise_from_the_report_without_warning(monkeypatch, threads):
    # finite points whose distances overflow float64
    monkeypatch.setattr(cn, "THREAD_PAIRS", 1)
    monkeypatch.setattr(cn, "_cpu_count", lambda: threads)
    pts = np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^class 0 domain all: pairwise distances are not "
                                             r"finite in float64 \(tau=inf mu=inf sigma=nan\)$"):
            cn.connectivity_report(records_from(pts, [0, 0, 0]))


def score_of(pts):
    row = cn._score_group(0, None, pts)
    return row.tau, row.mu, row.sigma


def assert_one_fill_same_bits(pts):
    tau = cn.connecting_threshold(pts, cn.condensed_distances(pts))
    mu, sigma, _ = cn.pairwise_stats(pts, cn.condensed_distances(pts))
    assert score_of(pts) == (tau, mu, sigma)
    mu, sigma, _ = dense_pairwise_stats(pts)
    assert score_of(pts) == (dense_threshold(pts), mu, sigma)


@pytest.mark.parametrize("k", [2, 3, 17, 300, 2000])
def test_one_fill_gives_the_standalone_and_dense_bits(k):
    assert_one_fill_same_bits(np.random.default_rng(k).standard_normal((k, 16)))


@PROPERTY
@given(st.one_of(point_sets(st.integers(-20, 20).map(lambda v: v / 4.0)), collinear_sets()))
@example(np.array([[0.0], [1.0], [2.0], [3.0]]))
@example(np.zeros((4, 2)))
def test_one_fill_gives_the_standalone_bits_on_ties(pts):
    assert_one_fill_same_bits(pts)


def test_one_distance_row_per_point_but_the_last(rng, monkeypatch):
    counted = []
    distances = cn._distances

    def counting(point, others, buf, out):
        counted.append(len(others))
        return distances(point, others, buf, out)

    monkeypatch.setattr(cn, "_distances", counting)
    sizes = {0: 40, 1: 1, 2: 25}
    classes = [c for c, n in sizes.items() for _ in range(n)]
    cn.connectivity_report(records_from(rng.standard_normal((len(classes), 3)), classes))
    assert len(counted) == sum(n - 1 for n in sizes.values() if n >= 2)
    assert sum(counted) == sum(n * (n - 1) // 2 for n in sizes.values())


def test_one_fill_keeps_one_condensed_vector():
    k, d = 2000, 16
    pts = np.random.default_rng(2).standard_normal((k, d))
    condensed = k * (k - 1) // 2 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cn._score_group(0, None, pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * condensed, f"peaked at {peak / condensed:.2f} condensed vectors"


def force_fill(monkeypatch, pairs_per_thread, cpus):
    """Set the fill's thread threshold and CPU count, and record the row
    range of each `_fill_rows` call."""
    monkeypatch.setattr(cn, "THREAD_PAIRS", pairs_per_thread)
    monkeypatch.setattr(cn, "_cpu_count", lambda: cpus)
    ranges, fill_rows = [], cn._fill_rows

    def recording(points, dists, first, stop):
        ranges.append((first, stop))
        return fill_rows(points, dists, first, stop)

    monkeypatch.setattr(cn, "_fill_rows", recording)
    return ranges


def serial_fill(points):
    k = len(points)
    dists = np.empty(k * (k - 1) // 2)
    cn._fill_rows(np.asarray(points, dtype=np.float64), dists, 0, k - 1)
    return dists


@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 129])
@pytest.mark.parametrize("cpus", [2, 3])
def test_threaded_fill_gives_the_serial_bytes(rng, monkeypatch, d, cpus):
    k = 61
    pts = rng.standard_normal((k, d))
    serial = {n: serial_fill(pts[:n]).tobytes() for n in (k - 1, k)}
    ranges = force_fill(monkeypatch, 1, cpus)
    threads_before = threading.active_count()
    # k points reach the threshold of two threads and k - 1 points fall
    # just below it; one pair per thread gives every CPU a range
    for n, pairs_per_thread, parts in [(k, k * (k - 1) // 4, 2), (k - 1, k * (k - 1) // 4, 1),
                                       (k, 1, cpus)]:
        monkeypatch.setattr(cn, "THREAD_PAIRS", pairs_per_thread)
        ranges.clear()
        assert cn.condensed_distances(pts[:n]).tobytes() == serial[n]
        ranges.sort()
        assert len(ranges) == parts and ranges[0][0] == 0 and ranges[-1][1] == n - 1
        assert all(stop == first for (_, stop), (first, _) in zip(ranges, ranges[1:]))
    assert threading.active_count() == threads_before


def test_more_fill_threads_than_cores_under_fast_switching(rng, monkeypatch):
    pts = rng.standard_normal((300, 3))
    serial = serial_fill(pts).tobytes()
    ranges = force_fill(monkeypatch, 1, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert cn.condensed_distances(pts).tobytes() == serial
    finally:
        sys.setswitchinterval(interval)
    assert len(ranges) == 5 * 8


def test_threaded_report_equals_the_serial_report(rng, monkeypatch):
    classes = np.repeat([0, 1, 2], 90)
    domains = np.tile(np.repeat([0, 1], 45), 3)
    records = records_from(rng.standard_normal((len(classes), 5)), classes, domains)
    serial = {mode: cn.connectivity_report(records, mode=mode)
              for mode in ("pooled", "per-domain")}
    ranges = force_fill(monkeypatch, 1, 2)
    for mode, report in serial.items():
        assert cn.connectivity_report(records, mode=mode) == report
    # every group, the 45-point ones included, took two threads
    assert len(ranges) == 2 * (3 + 6)


@pytest.mark.parametrize("parts", [[0], [1], [2], [1, 2]], ids=["0", "1", "2", "1-and-2"])
def test_fill_error_in_any_thread_propagates_and_no_thread_outlives_it(rng, monkeypatch,
                                                                       parts):
    pts = rng.standard_normal((40, 3))
    ranges = force_fill(monkeypatch, 1, 3)
    cn.condensed_distances(pts)
    firsts = [sorted(ranges)[part][0] for part in parts]
    distances, on_main = cn._distances, []

    def failing(point, others, buf, out):
        row = len(pts) - 1 - len(others)
        if row in firsts:
            on_main.append(threading.current_thread() is threading.main_thread())
            raise RuntimeError(f"row {row} failed")
        return distances(point, others, buf, out)

    monkeypatch.setattr(cn, "_distances", failing)
    threads_before = threading.active_count()
    # when several ranges fail, the lowest one's error is raised
    with pytest.raises(RuntimeError, match=f"^row {firsts[0]} failed$"):
        cn.condensed_distances(pts)
    assert threading.active_count() == threads_before
    # the first range fills on the calling thread, the others on their own
    assert on_main == [part == 0 for part in parts]


@pytest.mark.parametrize("mode", ["pooled", "per-domain"])
def test_report_calls_each_gauge_point_once_per_group(rng, monkeypatch, mode):
    """perfbench's speed gauge polls before `cn.pairwise_stats` and
    `cn.connecting_threshold`, and its tracer times them, so a report must
    call both through the module, once per group of 2 or more points."""
    calls = []
    for name in ("pairwise_stats", "connecting_threshold"):
        def counting(points, *args, name=name, kernel=getattr(cn, name)):
            calls.append((name, len(points)))
            return kernel(points, *args)
        monkeypatch.setattr(cn, name, counting)
    classes = [0] * 7 + [1] + [2] * 5
    domains = [0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1]
    report = cn.connectivity_report(
        records_from(rng.standard_normal((len(classes), 2)), classes, domains), mode=mode)
    scored = [row.count for row in report.rows if row.count >= 2]
    for name in ("pairwise_stats", "connecting_threshold"):
        assert [n for called, n in calls if called == name] == scored


def test_score_invariant_under_isometry_and_scale(rng):
    pts = rng.standard_normal((12, 3))
    base = cn.connectivity_report(records_from(pts, [0] * 12)).rows[0].score
    # translation
    shifted = pts + np.array([5.0, -2.0, 0.7])
    assert cn.connectivity_report(records_from(shifted, [0] * 12)).rows[0].score == pytest.approx(base)
    # rotation in the first two coordinates
    angle = 0.83
    rot = np.array([
        [math.cos(angle), -math.sin(angle), 0.0],
        [math.sin(angle), math.cos(angle), 0.0],
        [0.0, 0.0, 1.0],
    ])
    rotated = pts @ rot.T
    assert cn.connectivity_report(records_from(rotated, [0] * 12)).rows[0].score == pytest.approx(base)
    # uniform scaling: tau and mu scale, sigma scales, the score does not
    assert cn.connectivity_report(records_from(2.5 * pts, [0] * 12)).rows[0].score == pytest.approx(base)


def test_duplicate_point_never_increases_tau(rng):
    for trial in range(30):
        pts = rng.standard_normal((8, 2))
        tau = cn.connecting_threshold(pts, cn.condensed_distances(pts))
        dup = np.vstack([pts, pts[int(rng.integers(8))]])
        assert cn.connecting_threshold(dup, cn.condensed_distances(dup)) <= tau + 1e-12


def test_split_clusters_score_higher_than_single_blob(rng):
    blob = rng.normal(0.0, 0.2, size=(40, 2))
    split = np.vstack([
        rng.normal(0.0, 0.2, size=(20, 2)),
        rng.normal(8.0, 0.2, size=(20, 2)),
    ])
    tight = cn.connectivity_report(records_from(blob, [0] * 40)).rows[0].score
    broken = cn.connectivity_report(records_from(split, [0] * 40)).rows[0].score
    assert broken > tight


def test_singleton_class_marked_undefined_and_excluded():
    vectors = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
    report = cn.connectivity_report(records_from(vectors, [0, 0, 0, 1]))
    by_class = {row.class_id: row for row in report.rows}
    assert not by_class[1].defined
    assert by_class[0].defined
    assert report.mean_score == pytest.approx(by_class[0].score)


def test_per_domain_mode_groups_by_class_and_domain(rng):
    vectors = rng.standard_normal((12, 2))
    classes = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    domains = [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]
    report = cn.connectivity_report(records_from(vectors, classes, domains), mode="per-domain")
    keys = [(row.class_id, row.domain_id) for row in report.rows]
    assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_empty_dump_rejected():
    with pytest.raises(ValueError):
        cn.connectivity_report([])


def test_mixed_dimensions_rejected(rng):
    records = [
        cn.EmbeddingRecord(0, 0, 0, np.zeros(2)),
        cn.EmbeddingRecord(1, 0, 0, np.zeros(3)),
    ]
    with pytest.raises(ValueError):
        cn.connectivity_report(records)


def test_intra_class_variance():
    vectors = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    labels = np.array([0, 0, 1, 1])
    # class 0: mean (1,0), squared distances 1,1 -> 1; class 1: mean (1,0) -> 1
    assert intra_class_variance(vectors, labels) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        intra_class_variance(vectors[:1], labels[:1])
