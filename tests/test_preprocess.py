import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import slow_percentile
from workload_profiler.artifacts import jsonable, read_record
from workload_profiler.errors import DegenerateDataError, SchemaError, UndefinedSkewnessError
from workload_profiler.preprocess import (
    TransformSpec,
    _yeo_johnson,
    apply_transform,
    fit_transform,
    hopkins,
    proportional_allocation,
    skewness,
    stratified_sample,
)
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import FeatureMatrix


def matrix(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    names = tuple(f"f{i}" for i in range(arr.shape[1]))
    return FeatureMatrix(rows=arr, feature_names=names)


# ------------------------------------------------------------- transforms

def test_standard_hand_example():
    _, out = fit_transform(matrix([2.0, 4.0, 6.0]), "standard")
    np.testing.assert_allclose(out.rows.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_minmax_constant_column_maps_to_zero():
    _, out = fit_transform(matrix([5.0, 5.0, 5.0]), "minmax")
    assert out.rows.ravel().tolist() == [0.0, 0.0, 0.0]


def test_robust_iqr():
    _, out = fit_transform(matrix([1.0, 2.0, 3.0, 4.0, 100.0]), "robust")
    med = 3.0
    iqr = 4.0 - 2.0
    np.testing.assert_allclose(out.rows.ravel(), (np.array([1, 2, 3, 4, 100]) - med) / iqr)


def test_robust_constant_passes_through_centered():
    _, out = fit_transform(matrix([7.0, 7.0, 7.0]), "robust")
    assert out.rows.ravel().tolist() == [0.0, 0.0, 0.0]


def test_yeo_johnson_lambda_one_is_identity():
    x = np.array([0.0, 0.5, 3.0, 10.0])
    np.testing.assert_allclose(_yeo_johnson(x, 1.0), x)


def test_power_standardizes():
    rng = np.random.default_rng(0)
    skewed = np.exp(rng.normal(0, 1, 400))
    _, out = fit_transform(matrix(skewed), "power")
    assert abs(out.rows.mean()) < 1e-9
    assert abs(out.rows.std() - 1.0) < 1e-9
    # the fitted transform makes log-normal data much less skewed
    assert abs(skewness(out.rows.ravel())) < 0.3


def test_apply_to_unseen_and_serialization():
    spec, _ = fit_transform(matrix([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]), "standard")
    doc = jsonable(spec)
    spec2 = read_record(TransformSpec, doc)
    fresh = matrix([[2.0, 20.0]])
    np.testing.assert_array_equal(
        apply_transform(spec, fresh).rows, apply_transform(spec2, fresh).rows
    )


def test_apply_mismatched_features_errors():
    spec, _ = fit_transform(matrix([1.0, 2.0]), "standard")
    other = FeatureMatrix(rows=np.zeros((1, 2)), feature_names=("a", "b"))
    with pytest.raises(ValueError):
        apply_transform(spec, other)


def test_unfitted_spec_errors():
    spec = TransformSpec(kind="standard", feature_names=("f0",), params={})
    with pytest.raises(ValueError):
        apply_transform(spec, matrix([1.0]))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
    st.sampled_from(["standard", "minmax", "robust", "power"]),
)
@settings(max_examples=60, deadline=None)
def test_transforms_are_monotone_per_feature(values, kind):
    _, out = fit_transform(matrix(values), kind)
    order_in = np.argsort(np.asarray(values), kind="stable")
    col = out.rows.ravel()
    assert np.all(np.diff(col[order_in]) >= -1e-9)


@given(
    st.lists(
        st.floats(-1e3, 1e3).map(lambda v: round(v, 6)),
        min_size=3,
        max_size=30,
        unique=True,
    )
)
@settings(max_examples=50, deadline=None)
def test_affine_transforms_respect_shift(values):
    # standard scaling is invariant under per-feature shift (values rounded
    # so their spread survives the shift at float resolution)
    a = np.asarray(values)
    _, out1 = fit_transform(matrix(a), "standard")
    _, out2 = fit_transform(matrix(a + 17.5), "standard")
    np.testing.assert_allclose(out1.rows, out2.rows, atol=1e-6)


# -------------------------------------------------------------- skewness

def test_skewness_symmetric_is_zero():
    assert skewness([1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)


def test_skewness_hand_values():
    assert skewness([1, 1, 1, 10]) == pytest.approx(1.1547005, abs=1e-6)
    assert skewness([-10, -1, -1, -1]) == pytest.approx(-1.1547005, abs=1e-6)


def test_skewness_undefined():
    with pytest.raises(UndefinedSkewnessError):
        skewness([1.0, 2.0])
    with pytest.raises(UndefinedSkewnessError):
        skewness([3.0, 3.0, 3.0])


@given(
    st.lists(
        st.floats(-100, 100).map(lambda v: round(v, 6)),
        min_size=3,
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_skewness_invariances(values):
    # rounded values keep the spread representable after the +13 shift
    x = np.asarray(values)
    try:
        g = skewness(x)
    except UndefinedSkewnessError:
        return
    assert skewness(-x) == pytest.approx(-g, rel=1e-6, abs=1e-9)
    assert skewness(x + 13.0) == pytest.approx(g, rel=1e-4, abs=1e-6)
    assert skewness(x * 2.5) == pytest.approx(g, rel=1e-6, abs=1e-9)


# --------------------------------------------------------------- hopkins

def test_hopkins_clustered_low_uniform_middling():
    rng = np.random.default_rng(42)
    blobs = np.vstack(
        [rng.normal(c, 0.05, size=(167, 2)) for c in [(0, 0), (5, 5), (10, 0)]]
    )
    clustered = hopkins(matrix(blobs), 0.1, seed=1)
    assert clustered.score < 0.15
    uniform = hopkins(matrix(rng.uniform(0, 1, size=(500, 2))), 0.1, seed=1)
    assert 0.3 <= uniform.score <= 0.7


def test_hopkins_deterministic_and_permutation_invariant():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 3))
    m = matrix(X)
    first = hopkins(m, 0.2, seed=9).score
    assert hopkins(m, 0.2, seed=9).score == first
    shuffled = matrix(X[rng.permutation(120)])
    assert hopkins(shuffled, 0.2, seed=9).score == first


def test_hopkins_preconditions():
    with pytest.raises(DegenerateDataError):
        hopkins(matrix(np.zeros((5, 2))), 0.5, seed=0)
    with pytest.raises(DegenerateDataError):
        hopkins(matrix(np.ones((30, 2))), 0.5, seed=0)


# ------------------------------------------------------------- sampling

def test_allocation_simple():
    assert proportional_allocation({"a": 900, "b": 100}, 10) == {"a": 9, "b": 1}


def test_allocation_matches_published_sampling_table():
    sizes = {
        "bert": 10_940_142,
        "ctr": 9_128_957,
        "graphlearn": 4_888_371,
        "inception": 10_781_289,
        "nmt": 13_537,
        "resnet": 60_863,
        "rl": 849_626,
        "vgg": 11_768,
        "xlnet": 15_632,
    }
    alloc = proportional_allocation(sizes, 100_001)
    assert sum(alloc.values()) == 100_001
    assert abs(alloc["bert"] - 29_818) <= 1
    assert abs(alloc["ctr"] - 24_881) <= 1
    assert abs(alloc["graphlearn"] - 13_323) <= 1
    assert abs(alloc["inception"] - 29_385) <= 1
    assert abs(alloc["nmt"] - 37) <= 1
    assert abs(alloc["resnet"] - 166) <= 1
    assert abs(alloc["rl"] - 2_316) <= 1
    assert abs(alloc["vgg"] - 32) <= 1
    assert abs(alloc["xlnet"] - 43) <= 1


def test_allocation_keeps_tiny_strata():
    alloc = proportional_allocation({"big": 10_000, "tiny": 1}, 10)
    assert alloc["tiny"] == 1 and alloc["big"] == 9


def test_stratified_sample_proportions_and_identity():
    ds, _, _ = make_blob_trace(400, 4, seed=5)
    sampled = stratified_sample(ds, "app", 100, seed=1)
    assert len(sampled) == 100
    full = stratified_sample(ds, "app", len(ds), seed=1)
    assert full.ids.tolist() == ds.ids.tolist()  # identity sample, original order


def test_stratified_sample_errors(tiny_dataset):
    with pytest.raises(SchemaError):
        stratified_sample(tiny_dataset, "nope", 2, seed=0)
    with pytest.raises(ValueError):
        stratified_sample(tiny_dataset, "user", 0, seed=0)


# ------------------------------------------------------------ percentile

def test_percentile_oracle_agreement():
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = rng.normal(size=rng.integers(2, 40)).tolist()
        for p in (5, 25, 50, 75, 95):
            assert np.percentile(values, p) == pytest.approx(
                slow_percentile(values, p), rel=1e-12, abs=1e-12
            )
