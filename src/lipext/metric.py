"""Finite metric spaces: validation, Lipschitz constants, balls and slope profiles.

A :class:`MetricInstance` is a validated finite metric space together with a
distinguished subset ``C`` carrying sample values ``g`` and a slope budget
``L >= Lip(g, C)``.  All balls in this package are OPEN: ``{i : d(center, i) < r}``.
Instances are immutable after validation and every operation here is pure: a
Euclidean instance holds no distance matrix, and computes each block it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InstanceValidationError, ParameterError, as_float, is_real

# Relative slack for the triangle-inequality scan on explicit matrices.
TRIANGLE_RTOL = 1e-9
# Float64 entries of one block (512 kB): every scan that reads an array a block
# of rows at a time (the Euclidean fill, the triangle certificate, the pair
# scans, the quartile select, the extension's queries) takes _row_blocks of it.
_BLOCK = 1 << 16
# ball_lips answers a ball from the largest _TOP_K pair ratios when one of
# them lies inside it (a certificate for the exact maximum).
_TOP_K = 4096


def _row_blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices over ``range(count)`` of ``max(1, _BLOCK // width)`` rows
    each (the last may be shorter): a block of rows ``width`` entries long holds at
    most ``_BLOCK`` entries, or one row when a row alone is longer."""
    step = max(1, _BLOCK // max(1, width))
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


@dataclass
class MetricInstance:
    """A finite metric space with subset ``C``, values ``g`` on it and a constant ``L``.

    Build instances through :func:`validate_instance` (file-schema dict) or
    :func:`instance_from_arrays`; the constructor performs no checking.
    """

    subset: np.ndarray          # ordered indices of C
    values: np.ndarray          # g on C, aligned with subset
    lipschitz_L: float          # user-supplied or computed budget, >= lipschitz_computed
    lipschitz_computed: float   # Lip(g, C), the exhaustive pair supremum
    coords: np.ndarray | None = None    # (n, dim) Euclidean geometry, or
    dmatrix: np.ndarray | None = None   # explicit (n, n) distance matrix
    extents: tuple[float, float] = (0.0, 0.0)  # validation's (min positive or 0, max) distance
    _subset_pos: np.ndarray | None = field(default=None, repr=False, compare=False)  # read-only

    @property
    def n(self) -> int:
        if self.dmatrix is not None:
            return self.dmatrix.shape[0]
        return self.coords.shape[0]

    def distances(self, rows, cols) -> np.ndarray:
        """Distance submatrix d[rows, cols], a fresh array of shape (len(rows), len(cols)):
        gathered from an explicit matrix, or computed from ``coords`` on every call."""
        message = f"rows and cols must be 1-D lists of point indices in [0, {self.n})"
        rows = _index_list(rows, self.n, message)
        cols = _index_list(cols, self.n, message)
        if self.dmatrix is None:
            return _euclidean_matrix(self.coords[rows], self.coords[cols])
        return self.dmatrix[np.ix_(rows, cols)]

    def diameter(self) -> float:
        return self.extents[1]

    def subset_positions(self) -> np.ndarray:
        """Map point index -> position in ``subset`` (-1 off C), built by validation."""
        return self._subset_pos

    def g_at(self, point_indices) -> np.ndarray:
        """g at the given point indices; raises if any index is off C."""
        message = "values requested at indices outside the subset"
        pos = self.subset_positions()[_index_list(point_indices, self.n, message)]
        if np.any(pos < 0):
            raise ParameterError(message)
        return self.values[pos]

    def check_scale(self) -> float:
        """Scale used by relative tolerances in inequality checks."""
        return max(1.0, float(np.max(np.abs(self.values))),
                   self.lipschitz_L * self.diameter())


def _euclidean_block(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """``out[i, j] = d(a[i], b[j])``: the bits of ``sqrt(sum(diff * diff, axis=2))``
    over one ``(len(a), len(b), dim)`` array ``diff``.  From 1 to 7 coordinates
    the squared gaps are added into ``out`` left to right, as numpy sums so
    short an axis (``np.sum`` over it is about five times slower at 3), with
    ``out.size`` entries of ``scratch``; otherwise ``np.sum`` runs over the
    squares, in ``out.size * dim`` of them.  Overflow gives ``inf`` silently.
    ``fl(x - y) = -fl(y - x)``, so ``d(a, a)`` is symmetric with a +0 diagonal.
    """
    dim = a.shape[1]
    with np.errstate(over="ignore"):
        if 0 < dim < 8:
            for k in range(dim):
                dst = scratch[:out.size].reshape(out.shape) if k else out
                np.subtract(a[:, k, None], b[:, k], out=dst)
                np.multiply(dst, dst, out=dst)
                if k:
                    out += dst
        else:
            sq = scratch[:out.size * dim].reshape(*out.shape, dim)
            np.subtract(a[:, None, :], b[None, :, :], out=sq)
            np.multiply(sq, sq, out=sq)
            np.sum(sq, axis=2, out=out)
        return np.sqrt(out, out=out)


def _euclidean_plan(rows: int, b: np.ndarray) -> tuple[list[slice], np.ndarray]:
    """:func:`_row_blocks` of ``rows`` rows against ``b``, and a scratch for each block."""
    width = len(b) * (b.shape[1] if b.shape[1] >= 8 else 1)
    return _row_blocks(rows, width), np.empty(min(rows * width, max(_BLOCK, width)))


def _euclidean_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``d(a[i], b[j])`` for every ``i, j``, one row block at a time."""
    out = np.empty((len(a), len(b)))
    blocks, scratch = _euclidean_plan(len(a), b)
    for s in blocks:
        _euclidean_block(a[s], b, out[s], scratch)
    return out


def _check_euclidean(coords: np.ndarray) -> tuple[float, float]:
    """Reject a non-finite distance, then a repeated point; return the extents.

    One pass over the upper triangle, row block ``[a, b)`` against columns
    ``a..``, in buffers allocated once.  ``d`` is exactly symmetric, so the
    first offending pair in row-major order lies in these blocks.
    """
    n = len(coords)
    blocks, scratch = _euclidean_plan(n, coords)
    buf, dmin, dmax, duplicate = np.empty_like(scratch), np.inf, 0.0, None
    for s in blocks:
        a = s.start
        d = buf[:(s.stop - a) * (n - a)].reshape(s.stop - a, n - a)
        _euclidean_block(coords[s], coords[a:], d, scratch)
        if not np.all(np.isfinite(d)):
            i, j = np.argwhere(~np.isfinite(d))[0] + a
            _err("non-finite distance", "points", i=int(i), j=int(j))
        zero = d == 0.0
        np.fill_diagonal(zero, False)
        if duplicate is None and np.any(zero):
            duplicate = np.argwhere(zero)[0] + a
        dmin = min(dmin, float(np.min(d, where=d > 0, initial=np.inf)))
        dmax = max(dmax, float(d.max()))
    if duplicate is not None:
        _err("duplicate points (zero distance)", "points",
             i=int(duplicate[0]), j=int(duplicate[1]))
    return (dmin if dmin < np.inf else 0.0), dmax


def _err(reason, field, **witness):
    raise InstanceValidationError(reason, field, witness)


def _check_matrix(d: np.ndarray) -> tuple[float, float]:
    """Check the metric axioms of an explicit matrix ``d``; raise on the first
    failure with its witness, else return the extents.

    ``d`` must be finite, with a zero diagonal, symmetric, nonnegative and
    positive off the diagonal.  Then an exact triangle-inequality scan: every
    ``d[i, k] <= d[i, j] + d[j, k] + tol`` with ``tol = TRIANGLE_RTOL * max(d)``.
    It runs as a block certificate (see :func:`_triangle_violators`); only
    when that finds a violation does the per-pivot scan run, over the rows
    that take part in one, to name the witness: the smallest pivot ``j``, then
    the first ``(i, k)`` in row-major order.
    """
    n = d.shape[0]
    if not np.all(np.isfinite(d)):
        i, j = np.argwhere(~np.isfinite(d))[0]
        _err("non-finite distance", "points", i=int(i), j=int(j))
    if np.any(np.diag(d) != 0.0):
        i = int(np.argwhere(np.diag(d) != 0.0)[0][0])
        _err("nonzero diagonal", "points", i=i, value=float(d[i, i]))
    asym = d != d.T
    if np.any(asym):
        i, j = np.argwhere(asym)[0]
        _err("asymmetric matrix", "points", i=int(i), j=int(j),
             d_ij=float(d[i, j]), d_ji=float(d[j, i]))
    if np.any(d < 0.0):
        i, j = np.argwhere(d < 0.0)[0]
        _err("negative distance", "points", i=int(i), j=int(j), value=float(d[i, j]))
    zero = d == 0.0
    np.fill_diagonal(zero, False)
    if np.any(zero):
        i, j = np.argwhere(zero)[0]
        _err("zero off-diagonal distance", "points", i=int(i), j=int(j))
    extents = (float(np.min(d, where=d > 0, initial=np.inf)) if n > 1 else 0.0), float(d.max())
    tol = TRIANGLE_RTOL * extents[1]
    rows = _triangle_violators(d, tol)
    if len(rows) == 0:
        return extents
    # Every violation lies in these rows, which are in increasing order, so the
    # first hit of the smallest pivot is the same (i, k) as over all of d.
    d_rows = d[rows]
    for j in range(n):
        bad = d_rows > d_rows[:, j, None] + d[None, j, :] + tol
        if np.any(bad):
            r, k = np.argwhere(bad)[0]
            i = rows[r]
            _err("triangle inequality violated", "points",
                 i=int(i), j=int(j), k=int(k),
                 d_ik=float(d[i, k]), bound=float(d[i, j] + d[j, k]))


def _triangle_violators(d: np.ndarray, tol: float) -> np.ndarray:
    """Increasing indices ``i`` with some ``d[i, k] > (d[i, j] + d[j, k]) + tol``
    in floating point; empty when the triangle inequality holds everywhere.

    Exact, not sampled.  Row block ``[a, b)`` folds ``min_j d[a:b, j] + d[j, a:]``
    into one buffer and adds ``tol`` once: ``x -> fl(x + tol)`` is monotone, so
    the minimum commutes with it.  ``d`` is exactly symmetric and float
    addition commutes, so ``(i, k)`` violates iff ``(k, i)`` does: the columns
    ``k >= a`` of each block decide every pair, and the rows of a violation
    are the flagged rows and the flagged columns of all blocks.
    """
    n = d.shape[0]
    best_buf, step_buf = np.empty(max(_BLOCK, n)), np.empty(max(_BLOCK, n))
    flagged = np.zeros(n, dtype=bool)
    for s in _row_blocks(n, n):
        a, b = s.start, s.stop
        best = best_buf[:(b - a) * (n - a)].reshape(b - a, n - a)
        step = step_buf[:best.size].reshape(best.shape)
        np.add(d[a:b, 0, None], d[0, a:], out=best)
        for j in range(1, n):
            np.add(d[a:b, j, None], d[j, a:], out=step)
            np.minimum(best, step, out=best)
        best += tol
        bad = d[a:b, a:] > best
        flagged[a:b] |= bad.any(axis=1)
        flagged[a:] |= bad.any(axis=0)
    return np.flatnonzero(flagged)


def _first_non_integer(entries) -> int | None:
    """Position of the first entry that is not an integer (bools included), or None:
    the intp conversion of an index list would truncate 0.9 to 0 and read True as 1."""
    if isinstance(entries, np.ndarray) and entries.dtype.kind in "iu":
        return None
    for pos, entry in enumerate(np.asarray(entries, dtype=object).ravel()):
        if isinstance(entry, (bool, np.bool_)) or not isinstance(entry, (int, np.integer)):
            return pos
    return None


def _float_array(data, field: str, noun: str) -> np.ndarray:
    """``np.array(data, dtype=float)``, reading huge integers by :func:`~lipext.errors.as_float`;
    a string or a bool, which numpy reads as a number, is a ``non-numeric {noun}``."""
    try:
        arr = np.array(data, dtype=float)
    except OverflowError:
        arr = np.vectorize(as_float, otypes=[float])(np.array(data, dtype=object))
    bad = _first_non_real(data)
    if bad is not None:
        _err(f"non-numeric {noun}", field, position=bad[0] if len(bad) == 1 else bad)
    return arr


def _first_non_real(data) -> list[int] | None:
    """Index path of the first entry of nested lists or arrays that is not a real by
    :func:`~lipext.errors.is_real` (a string or a bool, say), or None; a list of
    floats and ints takes one scan of its types."""
    data = data.tolist() if isinstance(data, np.ndarray) else data
    if not isinstance(data, (list, tuple)):
        return None if is_real(data) else []
    if not set(map(type, data)) <= {float, int}:
        for i, entry in enumerate(data):
            path = _first_non_real(entry)
            if path is not None:
                return [i, *path]
    return None


def instance_from_arrays(*, coords=None, dmatrix=None, subset, values,
                         lipschitz=None) -> MetricInstance:
    """Validate and build an instance directly from arrays."""
    if (coords is None) == (dmatrix is None):
        _err("exactly one of coordinates or distance matrix required", "points")
    if coords is not None:
        coords = _float_array(coords, "points", "coordinate")
        if coords.ndim != 2 or coords.shape[0] < 1:
            _err("coordinates must be a non-empty 2-D array", "points")
        if not np.all(np.isfinite(coords)):
            _err("non-finite coordinate", "points",
                 i=int(np.argwhere(~np.isfinite(coords))[0][0]))
        n = coords.shape[0]
        coords.setflags(write=False)
    else:
        dmatrix = _float_array(dmatrix, "points", "distance")
        if dmatrix.ndim != 2 or dmatrix.shape[0] != dmatrix.shape[1] or dmatrix.shape[0] < 1:
            _err("distance matrix must be square and non-empty", "points")
        n = dmatrix.shape[0]
        dmatrix.setflags(write=False)

    pos = _first_non_integer(subset)
    if pos is not None:
        _err("subset entries must be integers", "subset", position=pos)
    subset = np.asarray(subset)
    if subset.ndim != 1 or len(subset) == 0:
        _err("subset must be a non-empty index list", "subset")
    # Range first: an entry beyond intp is out of range, never wrapped.
    outside = (subset < 0) | (subset >= n)
    if np.any(outside):
        _err("subset index out of range", "subset", index=int(subset[outside][0]), n=n)
    subset = subset.astype(np.intp)
    srt = np.sort(subset)   # not np.unique, whose plain form imports numpy.ma
    repeats = srt[1:][srt[1:] == srt[:-1]]
    if len(repeats):
        _err("duplicate subset index", "subset", index=int(repeats[0]))

    values = _float_array(values, "values", "value")
    if values.shape != subset.shape:
        _err("values length does not match subset length", "values",
             n_values=len(values), n_subset=len(subset))
    if not np.all(np.isfinite(values)):
        _err("non-finite value", "values",
             position=int(np.argwhere(~np.isfinite(values))[0][0]))

    extents = _check_matrix(dmatrix) if coords is None else _check_euclidean(coords)
    pos = np.full(n, -1, dtype=np.intp)
    pos[subset] = np.arange(len(subset))
    pos.setflags(write=False)
    inst = MetricInstance(subset=subset, values=values, lipschitz_L=0.0, lipschitz_computed=0.0,
                          coords=coords, dmatrix=dmatrix, extents=extents, _subset_pos=pos)

    with np.errstate(over="ignore"):    # an overflowing pair ratio is rejected here
        computed = lip_constant(inst, values, subset)
    if not np.isfinite(computed):
        _err("Lipschitz constant of the values does not fit in binary64", "values")
    if lipschitz is None:
        lipschitz = computed
    else:
        if not is_real(lipschitz):
            _err("lipschitz constant must be a finite nonnegative real", "lipschitz",
                 type=type(lipschitz).__name__)
        lipschitz = as_float(lipschitz)
        if not np.isfinite(lipschitz) or lipschitz < 0:
            _err("lipschitz constant must be a finite nonnegative real", "lipschitz",
                 value=lipschitz if np.isfinite(lipschitz) else str(lipschitz))  # strict JSON
        if lipschitz < computed:
            _err("lipschitz constant below the computed constant on the subset",
                 "lipschitz", supplied=lipschitz, computed=computed)
    inst.lipschitz_L = float(lipschitz)
    inst.lipschitz_computed = float(computed)
    if not np.isfinite(inst.check_scale()):     # every relative tolerance is a multiple of it
        _err("lipschitz constant times the diameter does not fit in binary64", "lipschitz",
             lipschitz=inst.lipschitz_L, diameter=inst.diameter())
    subset.setflags(write=False)
    values.setflags(write=False)
    return inst


def validate_instance(raw: Mapping) -> MetricInstance:
    """Validate a parsed instance file (see the CLI docs for the JSON schema).

    Raises :class:`InstanceValidationError` naming the offending field and,
    for metric-axiom failures, the witness index pair or triple.
    """
    if not isinstance(raw, Mapping):
        _err("instance file must be a JSON object", "root")
    points = raw.get("points")
    if not isinstance(points, Mapping) or "type" not in points:
        _err("missing or malformed field", "points")
    coords = dmatrix = None
    if points["type"] == "euclidean":
        if "coords" not in points:
            _err("missing field", "points.coords")
        coords = points["coords"]
    elif points["type"] == "matrix":
        if "d" not in points:
            _err("missing field", "points.d")
        dmatrix = points["d"]
    else:
        _err("unknown geometry type", "points.type", value=str(points["type"]))
    for key in ("subset", "values"):
        if key not in raw:
            _err("missing field", key)
    try:
        return instance_from_arrays(coords=coords, dmatrix=dmatrix, subset=raw["subset"],
                                    values=raw["values"], lipschitz=raw.get("lipschitz"))
    except (TypeError, ValueError) as exc:
        raise InstanceValidationError(f"malformed field: {exc}", "root") from exc


def _index_list(indices, n: int, message: str) -> np.ndarray:
    """``indices`` as 1-D intp; ``ParameterError(message)`` unless all are integers (not
    bools) in ``[0, n)``, range-checked before the cast, so none beyond intp wraps."""
    if _first_non_integer(indices) is None:     # before asarray: a ragged list is no list
        arr = np.asarray(indices)
        if arr.ndim == 1 and not (np.any(arr < 0) or np.any(arr >= n)):
            return arr.astype(np.intp, copy=False)
    raise ParameterError(message)


def _distinct_members(instance: MetricInstance, members) -> np.ndarray:
    """``members`` as 1-D intp; raises unless they are distinct point indices."""
    members = _index_list(members, instance.n,
                          f"members must be a 1-D list of point indices in [0, {instance.n})")
    srt = np.sort(members)
    if np.any(srt[1:] == srt[:-1]):
        raise ParameterError("member indices must be distinct")
    return members


def _member_values(instance: MetricInstance, members, values):
    """``(members, values)`` as arrays; raises unless the members are distinct
    point indices and the values finite and aligned with them."""
    members = _distinct_members(instance, members)
    values = np.asarray(values, dtype=float)
    if values.shape != members.shape:
        raise ParameterError("values must align with the member index list")
    if not np.all(np.isfinite(values)):
        raise ParameterError("values must be finite")
    return members, values


def _ratio(u, v, d):
    """``|u - v| / d`` elementwise with broadcasting, ``|u - v|`` where ``d`` is 0.

    The one place a pair ratio is computed: ``|u - v|`` and ``|v - u|`` are the
    same float and the distances are exactly symmetric, so every scan of a pair
    reads the same bits whichever end comes first.
    """
    gaps = np.subtract(u, v)
    np.abs(gaps, out=gaps)
    return np.divide(gaps, d, out=gaps, where=d > 0)


def _upper_blocks(instance: MetricInstance, points: np.ndarray):
    """Yield ``(a, d)``, ``d = instance.distances(points[a:b], points[a:])``, over the
    :func:`_row_blocks` ``[a, b)`` of the rows ``0..len(points) - 2`` (the last row has no
    pair of its own) against columns ``a..``: the one walk of every all-pairs scan.

    Entry ``[r, c]`` belongs to points ``a + r`` and ``a + c``, so the pairs ``i < j``
    with ``i`` in the block are the entries ``c > r`` (:func:`_strict_upper`); the
    others repeat a pair of the block or sit on the diagonal.
    """
    for s in _row_blocks(len(points) - 1, len(points)):
        yield s.start, instance.distances(points[s], points[s.start:])


def _strict_upper(block: np.ndarray) -> np.ndarray:
    """The entries ``c > r`` of a block of :func:`_upper_blocks`: its pairs ``i < j``."""
    return np.arange(block.shape[1]) > np.arange(block.shape[0])[:, None]


def _pair_blocks(instance: MetricInstance, members, values):
    """Yield ``(a, d, ratios)`` over the blocks of :func:`_upper_blocks`, with
    ``ratios`` the pair ratios of ``values`` (aligned with ``members``) on ``d``."""
    for a, d in _upper_blocks(instance, members):
        yield a, d, _ratio(values[a:a + len(d), None], values[a:], d)


def _steepest_pair(instance: MetricInstance, points: np.ndarray, values: np.ndarray):
    """``(ratio, i, j)`` of the first steepest position pair ``i < j`` in row-major
    order with ``d(points[i], points[j]) > 0``, read in the row blocks of
    :func:`_pair_blocks`; ``None`` when there is no such pair."""
    best = None
    for a, d, ratios in _pair_blocks(instance, points, values):
        pair = d > 0
        pair &= _strict_upper(d)
        if not pair.any():
            continue
        np.copyto(ratios, -1.0, where=~pair)       # below every ratio
        r, c = np.unravel_index(np.argmax(ratios), ratios.shape)
        if best is None or ratios[r, c] > best[0]:
            best = (float(ratios[r, c]), a + r, a + c)
    return best


def _top_pairs(instance: MetricInstance, members, values):
    """Pairs ``i < j`` of the ``_TOP_K`` largest positive ratios, in descending order.

    Returns ``(i, j, ratio, complete)``, ``complete`` when no positive pair is
    left out.  One running selection over :func:`_pair_blocks`: the pairs of a
    block above the smallest kept ratio (above 0 until K are kept) join the
    kept ones, and the K largest of those stay.  Every pair left out is
    therefore at most the smallest pair kept, whichever of the ties at the
    K-th value are kept; fewer than K are kept only when fewer are positive.
    """
    kept_r, kept_i, kept_j = np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp)
    floor, positive = 0.0, 0
    for a, _, ratios in _pair_blocks(instance, members, values):
        np.copyto(ratios, 0.0, where=~_strict_upper(ratios))
        positive += np.count_nonzero(ratios)
        r, c = np.nonzero(ratios > floor)
        if len(r) == 0:
            continue
        kept_r = np.concatenate([kept_r, ratios[r, c]])
        kept_i = np.concatenate([kept_i, r + a])
        kept_j = np.concatenate([kept_j, c + a])
        if len(kept_r) > _TOP_K:
            keep = np.argpartition(kept_r, len(kept_r) - _TOP_K)[-_TOP_K:]
            kept_r, kept_i, kept_j = kept_r[keep], kept_i[keep], kept_j[keep]
        if len(kept_r) == _TOP_K:
            floor = kept_r.min()
    order = np.argsort(-kept_r, kind="stable")
    return kept_i[order], kept_j[order], kept_r[order], positive <= _TOP_K


def ball_lips(instance: MetricInstance, members, values, centers, radii) -> np.ndarray:
    """Entry ``[c, j]``: Lipschitz constant of ``values`` (aligned with ``members``)
    over the members in the OPEN ball ``{i : d(centers[c], members[i]) < radii[j]}``.

    Only members some ball can hold (``d < max(radii)`` from some center) take
    part, in their given order; the balls are all 0 when at most one does.
    :func:`_top_pairs` keeps the ``_TOP_K`` largest of their pair ratios,
    streamed in row blocks, and these are walked in descending order: a
    ball's answer is the first pair whose farther end lies inside it.  That
    pair is a certificate: every pair left out is at most the smallest pair
    kept, so the answer is the same computed float as a scan of every pair in
    the ball.  A ball that holds no kept pair is 0 when every positive ratio
    was kept.  Otherwise the unresolved radii of that center recurse on its
    row: the members left are those of the largest unresolved ball, whose
    steepest pair is kept there, so each level settles at least that radius.
    No |members| x |members| array is built: the walk reads :func:`_row_blocks`
    of centers against the K kept pairs.

    ``members`` must be distinct and ``values`` finite; ``centers`` are any point
    indices and ``radii`` any nonnegative reals, in any order and with repeats.
    """
    members, values = _member_values(instance, members, values)
    centers = _index_list(centers, instance.n,
                          f"centers must be a 1-D list of point indices in [0, {instance.n})")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not np.all(radii >= 0):
        raise ParameterError("radii must be a 1-D list of nonnegative reals")
    return _ball_lips(instance, members, values, instance.distances(centers, members), radii)


def _ball_lips(instance: MetricInstance, members, values, d_rows, radii) -> np.ndarray:
    """:func:`ball_lips` with ``d_rows = d(centers, members)`` given."""
    reach = np.flatnonzero((d_rows < radii.max(initial=0.0)).any(axis=0))
    out = np.zeros((len(d_rows), len(radii)))
    if len(reach) <= 1:
        return out
    d_rows, members, values = d_rows[:, reach], members[reach], values[reach]
    first, second, top, complete = _top_pairs(instance, members, values)
    for s in _row_blocks(len(d_rows), len(top)):
        # Minus the running minimum of the far ends: non-decreasing along a row,
        # and pair k lies in the r-ball once this is above -r.
        lead = d_rows[s, first]
        np.maximum(lead, d_rows[s, second], out=lead)
        np.negative(lead, out=lead)
        np.maximum.accumulate(lead, axis=1, out=lead)
        for row, lead_row in enumerate(lead, start=s.start):
            hit = np.searchsorted(lead_row, -radii, side="right")
            found = hit < len(top)
            out[row, found] = top[hit[found]]
            if not complete and not np.all(found):
                out[row, ~found] = _ball_lips(instance, members, values,
                                              d_rows[row:row + 1], radii[~found])[0]
    return out


def lip_constant(instance: MetricInstance, values, members) -> float:
    """Lipschitz constant of ``values`` over the index set ``members``.

    Supremum of ``|v(y1) - v(y2)| / d(y1, y2)`` over distinct pairs; ``0.0``
    for empty or singleton sets (empty-supremum convention).  The ratio of
    :func:`_steepest_pair`.
    """
    steepest = _steepest_pair(instance, *_member_values(instance, members, values))
    return 0.0 if steepest is None else steepest[0]


def _check_radii(radii) -> np.ndarray:
    """``radii`` as a float array; raises unless strictly increasing, positive and finite."""
    radii = np.asarray(radii, dtype=float)
    if (radii.ndim != 1 or len(radii) == 0 or not np.all(np.isfinite(radii))
            or np.any(radii <= 0) or np.any(np.diff(radii) <= 0)):
        raise ParameterError("radii must be strictly increasing positive finite reals")
    return radii


def lipa_profile(instance: MetricInstance, domain, values, center: int, radii) -> np.ndarray:
    """Lipschitz constants of ``values`` on ``domain`` over growing balls at ``center``.

    The finite surrogate of the shrinking-ball slope limit: entry ``j`` is the
    constant on the open ball of radius ``radii[j]``.  ``radii`` must be
    strictly increasing and positive; ``center`` must belong to ``domain``.
    Entries are non-decreasing because the balls are nested.
    """
    if center not in np.asarray(domain):
        raise ParameterError("center must belong to the domain")
    radii = _check_radii(radii)
    return ball_lips(instance, domain, values, [center], radii)[0]
