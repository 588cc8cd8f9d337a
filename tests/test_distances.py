import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ordered_distance
from workload_profiler.distances import _unbuffered, box_lower_bound, point_to_rows
from workload_profiler.hdbscan import core_distances, mutual_reachability_mst
from workload_profiler.metrics import _silhouette_pass
from workload_profiler.profiles import _medoid_index

finite = st.floats(-1e3, 1e3)
vec3 = st.tuples(finite, finite, finite)


def one(a, b, kind: str) -> float:
    """The one-point call: the distance from a to a matrix of the one row b."""
    return float(point_to_rows(a, np.array([b], dtype=np.float64), kind)[0])


def textbook(a, b, kind: str) -> float:
    """The usual formula of each kind, in numpy's own summation order."""
    if kind == "euclidean":
        return float(np.sqrt(np.sum((a - b) ** 2)))
    if kind == "manhattan":
        return float(np.sum(np.abs(a - b)))
    return float(1.0 - a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_hand_examples():
    assert one([0, 0], [3, 4], "euclidean") == pytest.approx(5.0)
    assert one([1, 2], [4, 0], "manhattan") == pytest.approx(5.0)
    assert one([1, 0], [0, 1], "cosine") == pytest.approx(1.0)


def test_cosine_range_and_zero_vector():
    assert one([1, 1], [-1, -1], "cosine") == pytest.approx(2.0)
    assert one([0, 0], [1, 2], "cosine") == 1.0
    assert one([0, 0], [0, 0], "cosine") == 1.0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        one([1, 2], [1, 2, 3], "euclidean")
    with pytest.raises(ValueError):
        point_to_rows([1.0], np.zeros((3, 2)), "euclidean")


def test_unknown_kind():
    with pytest.raises(ValueError):
        one([1], [2], "chebyshev")


@given(vec3, vec3, vec3, st.sampled_from(["euclidean", "manhattan"]))
@settings(max_examples=100, deadline=None)
def test_metric_axioms(a, b, c, kind):
    dab = one(a, b, kind)
    assert dab >= 0
    assert dab == one(b, a, kind)
    assert one(a, a, kind) == 0.0
    assert dab <= one(a, c, kind) + one(c, b, kind) + 1e-9


@given(vec3, vec3)
@settings(max_examples=60, deadline=None)
def test_cosine_bounds(a, b):
    d = one(a, b, "cosine")
    assert 0.0 <= d <= 2.0


def test_point_to_rows_matches_scalar():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 4))
    x = rng.normal(size=4)
    for kind in ("euclidean", "manhattan", "cosine"):
        fast = point_to_rows(x, X, kind)
        slow = np.array([textbook(x, X[i], kind) for i in range(40)])
        np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_point_to_rows_bits_independent_of_layout(kind):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 5)) * [1.0, 1e3, 1e-3, 7.0, 0.5]
    F = np.asfortranarray(X)
    for i in range(0, 300, 17):
        c = point_to_rows(X[i], X, kind)
        assert np.array_equal(c, point_to_rows(F[i], F, kind))
        assert np.array_equal(c, point_to_rows(X[i].copy(), F, kind))


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_point_to_rows_symmetric_bit_for_bit(kind):
    for dims in range(1, 10):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, dims)) * 100.0
        X[90:100] = X[10:20]  # exact duplicates
        X[[7, 50, 95]] = 0.0  # zero vectors
        X = np.asfortranarray(X)
        D = np.stack([point_to_rows(X[i], X, kind) for i in range(120)])
        assert np.array_equal(D, D.T)
        # Block calls of any shape agree with their transpose and with D, as
        # the silhouette's lower-triangle pass relies on.
        for a, b in ((slice(0, 7), slice(30, 120)), (slice(40, 100), slice(0, 100)),
                     (slice(0, 120), slice(119, 120)), (slice(5, 6), slice(0, 2))):
            block = point_to_rows(X[a], X[b], kind)
            assert np.array_equal(block, point_to_rows(X[b], X[a], kind).T)
            assert np.array_equal(block, D[a, b])
        zero = ~X.any(axis=1)
        assert (np.diag(D)[~zero] == 0).all()
        assert (np.diag(D[90:100, 10:20])[~zero[90:100]] == 0).all()
        if kind == "cosine":
            assert (D[zero] == 1).all() and (D[:, zero] == 1).all()
            assert ((D >= 0) & (D <= 2)).all()


@pytest.mark.parametrize("dims", range(1, 10))
@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_point_to_rows_equals_scalar_loop_in_documented_order(kind, dims):
    rng = np.random.default_rng(dims)
    X = rng.normal(size=(60, dims)) * rng.uniform(0.01, 100.0, size=dims)
    X[7] = 0.0  # a zero row, a point and a row of the matrix
    F = np.asfortranarray(X)
    for i in range(0, 60, 7):
        expected = [ordered_distance(X[i], X[j], kind) for j in range(60)]
        assert point_to_rows(F[i], F, kind).tolist() == expected


@pytest.mark.parametrize("dims", [1, 2, 4, 9])
@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_point_block_equals_one_point_calls(kind, dims):
    rng = np.random.default_rng(10 + dims)
    X = rng.normal(size=(150, dims)) * rng.uniform(0.01, 100.0, size=dims)
    X[3] = 0.0  # a zero vector for cosine
    F = np.asfortranarray(X)
    for block in (X[:1], X[2:9], F[[5, 3, 5, 140]], X[::-1]):
        got = point_to_rows(block, F, kind)
        assert got.shape == (len(block), 150)
        assert np.array_equal(got, np.stack([point_to_rows(p, F, kind) for p in block]))
    with pytest.raises(ValueError):
        point_to_rows(np.zeros((2, dims + 1)), F, kind)


@pytest.mark.parametrize("dims", range(1, 10))
@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_box_bound_never_exceeds_the_kernel_from_any_point_of_the_box(kind, dims):
    rng = np.random.default_rng(20 + dims)
    scale = rng.uniform(1e-3, 1e3, size=dims)
    rows = np.asfortranarray(rng.normal(size=(200, dims)) * scale)
    for _ in range(20):
        corners = rows[rng.choice(200, size=int(rng.integers(1, 9)))]
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        bound = box_lower_bound(lo, hi, rows, kind)
        assert bound.shape == (200,) and (bound >= 0).all()
        inside = np.vstack([corners, lo, hi, lo + rng.random((30, dims)) * (hi - lo)])
        inside = np.clip(inside, lo, hi)
        assert (bound <= point_to_rows(inside, rows, kind)).all()


@pytest.mark.parametrize("dims", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_a_zero_width_box_bounds_by_the_kernel_distance_itself(kind, dims):
    rng = np.random.default_rng(30 + dims)
    grid = np.asfortranarray(rng.integers(-3, 4, size=(300, dims)).astype(float))
    for point in grid[:40]:  # many rows tie with the point or sit on its box
        assert np.array_equal(box_lower_bound(point, point, grid, kind),
                              point_to_rows(point, grid, kind))
        lo, hi = point - rng.integers(0, 2, dims), point + rng.integers(0, 2, dims)
        assert (box_lower_bound(lo, hi, grid, kind) <= point_to_rows(point, grid, kind)).all()


def test_a_box_bounds_no_cosine_distance():
    rows = np.random.default_rng(40).normal(size=(50, 3))
    assert box_lower_bound(rows.min(axis=0), rows.max(axis=0) + 1, rows, "cosine").tolist() == [0.0] * 50


def _scoped_calls():
    """One call of each function that runs in the small-buffer scope."""
    rng = np.random.default_rng(50)
    X = rng.normal(size=(60, 3))
    F = np.asfortranarray(X)
    labels = np.repeat([0, 1, 2], 20)
    core = core_distances(X, [4])[4]
    return {
        "point_to_rows": lambda: point_to_rows(X[:5], F, "manhattan"),
        "core_distances": lambda: core_distances(X, [2, 5], "euclidean"),
        "mutual_reachability_mst": lambda: mutual_reachability_mst(X, core, "euclidean"),
        "_silhouette_pass": lambda: _silhouette_pass(
            X, labels[None], np.arange(60), "cosine"),
        "_medoid_index": lambda: _medoid_index(X, "euclidean"),
    }


@pytest.mark.parametrize("name", sorted(_scoped_calls()))
@pytest.mark.parametrize("caller_buffer", [None, 4096])
def test_a_scoped_call_leaves_the_callers_buffer_size(name, caller_buffer):
    old = np.getbufsize()
    try:
        if caller_buffer is not None:
            np.setbufsize(caller_buffer)
        before = np.getbufsize()
        _scoped_calls()[name]()
        assert np.getbufsize() == before
    finally:
        np.setbufsize(old)
    assert np.getbufsize() == old


@pytest.mark.parametrize("args", [
    ([1.0, 2.0], np.zeros((3, 2)), "chebyshev"),  # unknown kind
    ([1.0, 2.0], np.zeros((3, 3)), "euclidean"),  # dimension mismatch
    (np.zeros((2, 2)), np.zeros((3, 3)), "manhattan"),
])
def test_a_raising_kernel_call_leaves_the_callers_buffer_size(args):
    before = np.getbufsize()
    with pytest.raises(ValueError):
        point_to_rows(*args)
    assert np.getbufsize() == before


def test_the_scope_sets_the_small_buffer_and_keeps_names_and_docstrings():
    @_unbuffered
    def probe():
        """Doc."""
        return np.getbufsize()

    assert probe() == 16 and probe.__wrapped__() == np.getbufsize() != 16
    assert (probe.__name__, probe.__doc__) == ("probe", "Doc.")
    for fn in (point_to_rows, core_distances, mutual_reachability_mst, _silhouette_pass,
               _medoid_index):
        assert fn.__wrapped__.__name__ == fn.__name__ and fn.__doc__


@pytest.mark.parametrize("dims", range(1, 10))
@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_bits_on_both_sides_of_numpys_buffering_boundary(kind, dims):
    """numpy buffers a block's (K, 1) coordinates below about 2730 columns
    at its default buffer: the scoped call, the call under the default
    buffer and the one-point calls give the same bits on either side."""
    rng = np.random.default_rng(60 + dims)
    assert np.getbufsize() == 8192
    for k, n in ((3, 2700), (3, 2750), (8, 2700), (8, 2750), (128, 128)):
        rows = rng.normal(size=(n, dims)) * rng.uniform(0.01, 100.0, size=dims)
        rows[n // 2] = 0.0  # a zero row for cosine
        F = np.asfortranarray(rows)
        block = rows[rng.choice(n, size=k)]
        got = point_to_rows(block, F, kind)
        assert np.array_equal(got, point_to_rows.__wrapped__(block, F, kind))
        assert np.array_equal(got, np.stack([point_to_rows(p, F, kind) for p in block]))
