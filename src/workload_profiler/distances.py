"""The distance kernel, ``point_to_rows``: every distance that clustering,
the quality metrics and the profiles take is computed by it.

Supported kinds: euclidean, manhattan, cosine. Cosine distance is
1 - cos(angle), range [0, 2], taken as half the squared euclidean distance
of the unit rows; a zero vector is assigned distance 1 to everything
(including itself), which keeps the value defined without inventing a
direction for it.

The kernel and the passes built on it (``hdbscan.core_distances``,
``hdbscan.mutual_reachability_mst``, ``metrics._silhouette_pass``,
``profiles._medoid_index``) run inside ``_unbuffered``: numpy's ufunc buffer
is set to its smallest size for the call and restored afterwards, also when
the call raises. ``box_lower_bound`` is called only from inside such a pass.
numpy 2.4 buffers a broadcast operand, such as a block's (K, 1) column of
coordinates, whenever an output row is shorter than about a third of the
buffer (8192 elements by default), which makes each step of a block of fewer
than about 2730 columns about 3-4 times slower per element. A 16-element buffer lets the iterator
run such a broadcast directly. Inside these functions every ufunc works on
float64 or int64 operands without casting, and elementwise results and
contiguous reductions do not depend on how numpy iterates, so the bits are
those of the default buffer. The setting is not made process-wide: an
operation that must cast (the encoders and the forest's routing) would then
run in 16-element buffers, which made a classify pass about 30% longer.
"""

from __future__ import annotations

import functools

import numpy as np

DISTANCE_KINDS = ("euclidean", "manhattan", "cosine")

# A block of distance rows holds at most about this many elements, so that a
# block costs about as much memory as one row of a 16k-point matrix.
BLOCK_ELEMENTS = 16_384


# numpy's ufunc buffer size, in elements, inside ``_unbuffered``. numpy 1.x
# accepts a multiple of 16 only.
_SMALL_BUFFER = 16


def _unbuffered(fn):
    """``fn`` run with numpy's ufunc buffer at ``_SMALL_BUFFER`` elements and
    the caller's size restored on return or raise (by hand: numpy 1.x's
    ``errstate`` does not restore it)."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        old = np.setbufsize(_SMALL_BUFFER)
        try:
            return fn(*args, **kwargs)
        finally:
            np.setbufsize(old)

    return scoped


def block_rows(n: int) -> int:
    """Rows of n distances in one block: at least 1, at most BLOCK_ELEMENTS."""
    return max(1, BLOCK_ELEMENTS // max(n, 1))


@_unbuffered
def point_to_rows(x, rows: np.ndarray, kind: str = "euclidean") -> np.ndarray:
    """Distances from one point, shape (m,), to every row of an (n, m) matrix,
    shape (n,); or from each of a (K, m) block of points, shape (K, n).

    Euclidean and manhattan run feature-major, over ``rows.T``, in a fixed
    summation order: manhattan adds the absolute differences in ascending
    feature order; euclidean keeps two running sums of squared differences,
    one over the even-indexed features and one over the odd-indexed ones,
    each in ascending order, and returns sqrt(even + odd). A block's
    coordinates are broadcast as columns through the same steps. Every step
    is elementwise, so the result has the same bits whatever the memory
    layout of ``rows``, each element of a block equals the one-point call,
    and d(a, b) == d(b, a) exactly, which keeps exact ties.
    Callers in O(n^2) loops pass ``np.asfortranarray(X)`` so that each
    feature is one contiguous row. With 1 to 7 features these are the bits
    of a row-wise ``einsum`` on numpy 2.4, but not of ``sum(axis=1)``, which
    differs in the last place from 3 features on; with 8 or more they can
    differ from ``einsum`` too (numpy then sums pairwise).
    Cosine returns 0.5 * (even + odd) of the unit rows (``_unit``), which is
    exact halving, so it keeps all of the above and a nonzero row is at 0
    from itself; a zero row's NaN distances become 1, the rest is capped at 2.
    """
    if kind not in DISTANCE_KINDS:
        raise ValueError(f"unknown distance kind {kind!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != rows.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {rows.shape[1]}")
    if x.ndim == 2 and x.shape[0] == 1:
        return point_to_rows(x[0], rows, kind)[None]  # scalars broadcast faster
    if kind == "cosine":
        x, rows = _unit(x), _unit(rows)
    cols = rows.T
    # One coordinate per feature: a float, or a (K, 1) column of a block.
    x = x.tolist() if x.ndim == 1 else [x[:, j:j + 1] for j in range(x.shape[1])]
    if kind == "manhattan":
        total = np.abs(cols[0] - x[0])
        term = np.empty_like(total)
        for j in range(1, len(x)):
            np.subtract(cols[j], x[j], out=term)
            total += np.abs(term, out=term)
        return total
    even = np.square(cols[0] - x[0])
    if len(x) > 1:
        odd = np.square(cols[1] - x[1])
        term = np.empty_like(even)
        for j in range(2, len(x)):
            np.subtract(cols[j], x[j], out=term)
            np.square(term, out=term)
            if j % 2:
                odd += term
            else:
                even += term
        even += odd
    if kind == "cosine":
        even *= 0.5
        even[np.isnan(even)] = 1.0
        return np.minimum(even, 2.0, out=even)
    return np.sqrt(even, out=even)


def box_lower_bound(lo, hi, rows: np.ndarray, kind: str = "euclidean") -> np.ndarray:
    """For each row, shape (n,), a value at most ``point_to_rows(x, row,
    kind)`` for every point x with lo <= x <= hi featurewise.

    Per feature the gap is max(row_j - hi_j, lo_j - row_j, 0), and the gaps
    go through the kernel's own steps as distances from the origin: square
    or absolute value, the same running sums in ascending feature order,
    then the sqrt. For x in the box, the kernel's difference row_j - x_j is
    at least the gap in magnitude: it subtracts a number beyond the box's
    edge from the same row_j, and correctly rounded subtraction is monotone
    (and odd, so the sign does not matter). Correctly rounded squaring of a
    non-negative number, addition and sqrt are monotone too, so every step
    keeps the gap's value at most the kernel's, and the bound needs no
    margin. Cosine compares unit rows, which a box on the raw rows does not
    bound, so its bound is 0.
    """
    if kind == "cosine":
        return np.zeros(rows.shape[0])
    gaps = rows - hi
    np.maximum(gaps, lo - rows, out=gaps)
    np.maximum(gaps, 0.0, out=gaps)
    return point_to_rows(np.zeros(rows.shape[1]), gaps, kind)


def _unit(a: np.ndarray) -> np.ndarray:
    """``a`` divided by its norm along the last axis, the squares summed in
    ascending feature order, so a row has the same bits as a point, alone or
    in a block, whatever the layout; a zero row becomes NaN."""
    sq = np.square(a[..., 0])
    for j in range(1, a.shape[-1]):
        sq += np.square(a[..., j])
    return a / np.where(sq > 0, np.sqrt(sq), np.nan)[..., None]
