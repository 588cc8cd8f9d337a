"""Feature transforms, clusterability testing, sampling, and shape statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distances import block_rows, point_to_rows
from .errors import DegenerateDataError, SchemaError, UndefinedSkewnessError
from .trace_model import Dataset, FeatureMatrix

TRANSFORM_KINDS = ("standard", "minmax", "robust", "power")

_YJ_LAMBDA_RANGE = (-5.0, 5.0)


@dataclass
class TransformSpec:
    """A fitted per-feature transform, re-applicable to unseen workloads."""

    kind: str
    feature_names: tuple[str, ...]
    params: dict[str, np.ndarray]

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")


@dataclass(frozen=True)
class HopkinsResult:
    score: float
    sample_size: int
    seed: int


def _yeo_johnson(x: np.ndarray, lmbda: float) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    if abs(lmbda) < 1e-12:
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = (np.power(x[pos] + 1.0, lmbda) - 1.0) / lmbda
    neg = ~pos
    if abs(lmbda - 2.0) < 1e-12:
        out[neg] = -np.log1p(-x[neg])
    else:
        out[neg] = -(np.power(1.0 - x[neg], 2.0 - lmbda) - 1.0) / (2.0 - lmbda)
    return out


def _yj_log_likelihood(x: np.ndarray, lmbda: float) -> float:
    t = _yeo_johnson(x, lmbda)
    var = float(t.var())
    if not np.isfinite(var) or var <= 0.0:
        return -math.inf
    n = x.size
    return -0.5 * n * math.log(var) + (lmbda - 1.0) * float(
        np.sum(np.sign(x) * np.log1p(np.abs(x)))
    )


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    # Deterministic golden-section search for a unimodal maximum on [lo, hi].
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _fit_power_column(col: np.ndarray) -> float:
    if float(col.var()) == 0.0:
        return 1.0  # constant column: identity lambda, standardization zeroes it
    return _golden_section_max(
        lambda lm: _yj_log_likelihood(col, lm), *_YJ_LAMBDA_RANGE
    )


def fit_transform(matrix: FeatureMatrix, kind: str) -> tuple[TransformSpec, FeatureMatrix]:
    """Fit a transform on the matrix and return (spec, transformed matrix).

    standard: (x - mean) / population std, constant features map to 0.
    minmax:   (x - min) / range, constant features map to 0.
    robust:   (x - median) / IQR, IQR of 0 replaced by 1.
    power:    Yeo-Johnson with per-feature lambda by maximum likelihood
              (golden-section search over [-5, 5]), then standardized.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    X = matrix.rows
    if X.size == 0:
        raise ValueError("cannot fit a transform on an empty matrix")

    if kind == "standard":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        params = {"mean": mean, "scale": scale}
    elif kind == "minmax":
        lo = X.min(axis=0)
        rng = X.max(axis=0) - lo
        rng = np.where(rng == 0.0, 1.0, rng)
        params = {"min": lo, "range": rng}
    elif kind == "robust":
        med = np.median(X, axis=0)
        q1, q3 = np.percentile(X, [25, 75], axis=0)
        iqr = q3 - q1
        iqr = np.where(iqr == 0.0, 1.0, iqr)
        params = {"median": med, "iqr": iqr}
    else:
        lmbda = np.array([_fit_power_column(X[:, j]) for j in range(X.shape[1])])
        T = np.column_stack([_yeo_johnson(X[:, j], lmbda[j]) for j in range(X.shape[1])])
        mean = T.mean(axis=0)
        scale = T.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        params = {"lambda": lmbda, "mean": mean, "scale": scale}

    spec = TransformSpec(kind=kind, feature_names=matrix.feature_names, params=params)
    return spec, apply_transform(spec, matrix)


def apply_transform(spec: TransformSpec, matrix: FeatureMatrix) -> FeatureMatrix:
    """Apply a fitted spec to a matrix with the same feature set."""
    if not spec.params:
        raise ValueError("transform spec is not fitted")
    if spec.feature_names != matrix.feature_names:
        raise ValueError("transform spec does not match the matrix features")
    X = matrix.rows
    kind = spec.kind
    if kind == "standard":
        T = (X - spec.params["mean"]) / spec.params["scale"]
    elif kind == "minmax":
        T = (X - spec.params["min"]) / spec.params["range"]
    elif kind == "robust":
        T = (X - spec.params["median"]) / spec.params["iqr"]
    else:  # power; TransformSpec admits no other kind
        lmbda = spec.params["lambda"]
        T = np.column_stack(
            [_yeo_johnson(X[:, j], lmbda[j]) for j in range(X.shape[1])]
        )
        T = (T - spec.params["mean"]) / spec.params["scale"]
    return FeatureMatrix(rows=T, feature_names=matrix.feature_names)


def hopkins(matrix: FeatureMatrix, sample_fraction: float = 0.1, seed: int = 0) -> HopkinsResult:
    """Clustering-tendency score in [0, 1]; values near 0 indicate clusters.

    Uniform random probes are drawn over the data's bounding box; the score
    compares nearest-neighbor distances of sampled real points against those
    of the probes, so uniform data scores ~0.5 and clustered data ~0.
    Deterministic for a fixed seed and invariant under row permutation.
    """
    X = matrix.rows
    n = X.shape[0]
    if n < 10:
        raise DegenerateDataError(f"hopkins needs at least 10 points, got {n}")
    if not np.isfinite(X).all():
        raise ValueError("hopkins requires finite values in every column")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    if np.all(hi == lo):
        raise DegenerateDataError("degenerate bounding box: all points identical")

    # Canonical row order makes the sampled points independent of input order.
    order = np.lexsort(X.T[::-1])
    Xs = np.asfortranarray(X[order])

    m = min(n, max(50, int(round(n * sample_fraction))))
    rng = np.random.default_rng(seed)
    probes = rng.uniform(lo, hi, size=(m, X.shape[1]))
    sample_idx = rng.choice(n, size=m, replace=False)

    u = np.empty(m)  # probe -> nearest real point
    w = np.empty(m)  # sampled real point -> nearest other real point
    block = block_rows(n)
    for start in range(0, m, block):
        end = min(start + block, m)
        u[start:end] = point_to_rows(probes[start:end], Xs, "euclidean").min(axis=1)
        own = sample_idx[start:end]
        d = point_to_rows(Xs[own], Xs, "euclidean")
        d[np.arange(own.size), own] = np.inf
        w[start:end] = d.min(axis=1)
    total = float(u.sum() + w.sum())
    score = 0.5 if total == 0.0 else float(w.sum()) / total
    return HopkinsResult(score=score, sample_size=m, seed=seed)


def proportional_allocation(sizes: Mapping[str, int], target: int) -> dict[str, int]:
    """Largest-remainder apportionment of ``target`` across strata.

    Counts are proportional to stratum sizes and sum exactly to target;
    when target >= number of strata every nonempty stratum gets >= 1.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    names = sorted(sizes)
    total = sum(sizes[s] for s in names)
    if target > total:
        raise ValueError("target exceeds the population size")
    quota = {s: target * sizes[s] / total for s in names}
    alloc = {s: int(math.floor(quota[s])) for s in names}
    leftover = target - sum(alloc.values())
    by_remainder = sorted(names, key=lambda s: (-(quota[s] - alloc[s]), -sizes[s], s))
    for s in by_remainder[:leftover]:
        alloc[s] += 1
    if target >= len(names):
        # Floor guarantee: move units from the largest allocations.
        for s in names:
            if alloc[s] == 0 and sizes[s] > 0:
                donor = max(names, key=lambda d: (alloc[d], sizes[d], d))
                if alloc[donor] > 1:
                    alloc[donor] -= 1
                    alloc[s] += 1
    return alloc


def stratified_sample(
    dataset: Dataset, stratify_on: str, target_size: int, seed: int = 0
) -> Dataset:
    """Proportional stratified sample over one metadata feature.

    The result preserves the dataset's row order; target_size == n returns
    the identity sample.
    """
    if stratify_on not in dataset.schema_metadata:
        raise SchemaError(f"unknown metadata feature {stratify_on!r}")
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    n = len(dataset)
    if target_size > n:
        raise ValueError("target_size exceeds the dataset size")

    j = dataset.schema_metadata.index(stratify_on)
    codes = dataset.metadata.codes[:, j]
    table = dataset.metadata.tables[j]  # sorted, so strata are visited in name order
    alloc = proportional_allocation(dataset.metadata.counts(j), target_size)

    rng = np.random.default_rng(seed)
    chosen: list[np.ndarray] = []
    for code, name in enumerate(table):
        take = alloc.get(name, 0)
        if take:
            idx = np.flatnonzero(codes == code)
            chosen.append(idx[rng.choice(len(idx), size=take, replace=False)])
    return dataset.select(np.sort(np.concatenate(chosen)))


def skewness(values: Sequence[float]) -> float:
    """Fisher-Pearson moment coefficient g1 = m3 / m2^(3/2), biased form."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 3:
        raise UndefinedSkewnessError(f"need at least 3 values, got {x.size}")
    mean = float(x.mean())
    d = x - mean
    m2 = float(np.mean(d * d))
    # Zero variance exactly, by underflow, or to within float rounding of the
    # mean (a constant column whose mean rounds inexactly is still constant).
    if m2 == 0.0 or m2**1.5 == 0.0 or math.sqrt(m2) <= abs(mean) * 1e-14:
        raise UndefinedSkewnessError("zero variance")
    m3 = float(np.mean(d * d * d))
    return m3 / m2**1.5
