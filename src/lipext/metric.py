"""Finite metric spaces: validation, Lipschitz constants, balls and slope profiles.

A :class:`MetricInstance` is a validated finite metric space together with a
distinguished subset ``C`` carrying sample values ``g`` and a slope budget
``L >= Lip(g, C)``.  All balls in this package are OPEN: ``{i : d(center, i) < r}``.
Instances are immutable after validation and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InstanceValidationError, ParameterError

# Relative slack for the triangle-inequality scan on explicit matrices.
TRIANGLE_RTOL = 1e-9
# Float64 entries of each block of a pair scan (512 kB).  ball_lips, lip_constant
# and the check battery read member pairs a row block at a time, each block at
# most this many entries (one row when a row alone is longer), never a
# |members| x |members| array.
_SCAN_BLOCK = 1 << 16
# ball_lips answers a ball from the largest _TOP_K pair ratios when one of
# them lies inside it (a certificate for the exact maximum) and otherwise
# scans the ball in full.
_TOP_K = 4096
# Queries per block of the extension's evaluation and diameter scan.
_ROW_CHUNK = 128
# Rows per block of the triangle certificate: two (_TRIANGLE_ROWS, n) buffers.
_TRIANGLE_ROWS = 64
# Float64 entries of all the temporaries of _euclidean_matrix together (2 MB):
# its row blocks are sized so that every live (rows, n) slab fits in this.
_GEOMETRY_BLOCK = 1 << 18
# numpy sums a contiguous axis pairwise: runs of up to _PAIRWISE_BLOCK items
# in eight interleaved lanes, longer runs split in two halves.
_PAIRWISE_BLOCK = 128


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
    labels: list[str] | None = None
    _dcache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _subset_pos: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        if self.dmatrix is not None:
            return self.dmatrix.shape[0]
        return self.coords.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Full n-by-n matrix, read-only and shared by every caller.

        An explicit matrix is returned as validated; Euclidean geometry is
        expanded once, in row blocks, and cached.  It is the only n-by-n array
        an instance holds.
        """
        if self.dmatrix is not None:
            return self.dmatrix
        if self._dcache is None:
            self._dcache = _euclidean_matrix(self.coords)
            self._dcache.setflags(write=False)
        return self._dcache

    def distances(self, rows, cols) -> np.ndarray:
        """Distance submatrix d[rows, cols] with shape (len(rows), len(cols)).

        When ``rows`` and ``cols`` are both ``0..n-1`` in order this is the
        read-only :meth:`distance_matrix` itself, not a copy; any other index
        lists give a fresh array.
        """
        message = f"rows and cols must be 1-D lists of point indices in [0, {self.n})"
        rows = _index_list(rows, self.n, message)
        cols = _index_list(cols, self.n, message)
        d = self.distance_matrix()
        if _is_full_range(rows, self.n) and _is_full_range(cols, self.n):
            return d
        return d[np.ix_(rows, cols)]

    def dist_to_subset(self, indices) -> np.ndarray:
        """d(x, C) = min over anchors, for each x in ``indices``."""
        return self.distances(self.subset, indices).min(axis=0)

    def diameter(self) -> float:
        return float(self.distance_matrix().max())

    def subset_positions(self) -> np.ndarray:
        """Map point index -> position in ``subset`` (-1 off C)."""
        if self._subset_pos is None:
            pos = np.full(self.n, -1, dtype=np.intp)
            pos[self.subset] = np.arange(len(self.subset))
            self._subset_pos = pos
            self._subset_pos.setflags(write=False)
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


def _is_full_range(indices: np.ndarray, n: int) -> bool:
    return indices.shape == (n,) and bool(np.all(indices == np.arange(n)))


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, filled one row block and one coordinate
    at a time.

    The squared gaps ``(coords[a:b, k, None] - coords[None, :, k])**2`` of each
    coordinate ``k`` are added into the ``(rows, n)`` block of the output, in
    the order in which ``np.sum(diff * diff, axis=-1)`` adds a contiguous axis
    of length ``dim`` (see :func:`_pairwise_squares`).  The matrix is the same
    bits as ``sqrt(sum(diff * diff, axis=2))`` over one ``(n, n, dim)`` array,
    for any block size, while the temporaries hold at most ``_GEOMETRY_BLOCK``
    entries whatever ``dim`` is.  A distance that overflows is ``inf`` without
    a warning; validation then rejects it as non-finite.
    """
    n, dim = coords.shape
    if dim == 0:
        return np.zeros((n, n))
    ct = np.ascontiguousarray(coords.T)
    slabs = _pairwise_slabs(dim)
    step = max(1, _GEOMETRY_BLOCK // (slabs * n))
    buf = np.empty(slabs * min(step, n) * n)
    out = np.empty((n, n))
    with np.errstate(over="ignore"):
        for a in range(0, n, step):
            block = out[a:a + step]
            size = block.size
            free = [buf[i * size:(i + 1) * size].reshape(block.shape) for i in range(slabs)]
            _pairwise_squares(block, (ct[:, a:a + step, None], ct[:, None, :]), 0, dim, free)
            np.sqrt(block, out=block)
    return out


def _pairwise_slabs(count: int) -> int:
    """Scratch slabs :func:`_pairwise_squares` needs for ``count`` coordinates."""
    if count < 8:
        return 1
    if count <= _PAIRWISE_BLOCK:
        return 8
    half = count // 2 - count // 2 % 8
    return 1 + _pairwise_slabs(count - half)


def _pairwise_squares(out, gaps, lo, count, free) -> None:
    """Set ``out`` to the sum of the squared gaps of coordinates
    ``lo .. lo + count - 1`` in numpy's pairwise order for a contiguous run.

    Fewer than 8 items are added left to right.  Up to ``_PAIRWISE_BLOCK``
    items go to eight lanes, lane ``j`` taking items ``j, j + 8, ...`` up to
    the last multiple of 8; the lanes are combined as
    ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`` and the remaining items added left
    to right.  A longer run splits at ``count // 2`` rounded down to a multiple
    of 8 and adds the two halves.  ``gaps`` is ``(rows, cols)`` with
    ``rows[k] - cols[k]`` the gap block of coordinate ``k``; ``free`` holds
    :func:`_pairwise_slabs` ``(count)`` scratch arrays shaped like ``out``.
    """
    if count > _PAIRWISE_BLOCK:
        half = count // 2 - count // 2 % 8
        _pairwise_squares(out, gaps, lo, half, free)
        _pairwise_squares(free[0], gaps, lo + half, count - half, free[1:])
        out += free[0]
        return
    if count < 8:
        _add_squares(out, gaps, range(lo, lo + count), free[0], fresh=True)
        return
    body = lo + count - count % 8
    lanes = [out, *free[:7]]
    for j, lane in enumerate(lanes):
        _add_squares(lane, gaps, range(lo + j, body, 8), free[7], fresh=True)
    for width in (1, 2, 4):
        for j in range(0, 8, 2 * width):
            lanes[j] += lanes[j + width]
    _add_squares(out, gaps, range(body, lo + count), free[7], fresh=False)


def _add_squares(out, gaps, ks, scratch, fresh: bool) -> None:
    """Add the squared gaps of coordinates ``ks`` into ``out`` left to right;
    with ``fresh`` the first one is written into ``out`` instead."""
    rows, cols = gaps
    for k in ks:
        dst = out if fresh else scratch
        np.subtract(rows[k], cols[k], out=dst)
        np.multiply(dst, dst, out=dst)
        if not fresh:
            out += dst
        fresh = False


def _err(reason, field, **witness):
    raise InstanceValidationError(reason, field, witness)


def _check_matrix(d: np.ndarray, euclidean: bool) -> None:
    """Check the metric axioms of ``d``; raise on the first failure with its witness.

    Every matrix must be finite with positive off-diagonal entries.  Explicit
    matrices are also checked for a zero diagonal, symmetry and signs, which
    hold for Euclidean ones by construction.

    Explicit matrices also get an exact triangle-inequality scan: every
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
    # A Euclidean matrix is symmetric with a +0 diagonal and no negative entry
    # by construction: fl(a - b) = -fl(b - a) squares to the same value, the
    # sum adds the same terms in the same order, and sqrt returns +0 or more.
    if not euclidean:
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
        reason = "duplicate points (zero distance)" if euclidean else "zero off-diagonal distance"
        _err(reason, "points", i=int(i), j=int(j))
    # Euclidean matrices satisfy the triangle inequality by construction.
    if euclidean:
        return
    tol = TRIANGLE_RTOL * float(d.max())
    rows = _triangle_violators(d, tol)
    if len(rows) == 0:
        return
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
    best_buf = np.empty(_TRIANGLE_ROWS * n)
    step_buf = np.empty(_TRIANGLE_ROWS * n)
    flagged = np.zeros(n, dtype=bool)
    for a in range(0, n, _TRIANGLE_ROWS):
        b = min(a + _TRIANGLE_ROWS, n)
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


def _build_checked(coords, dmatrix, subset, values, lipschitz, labels) -> MetricInstance:
    if (coords is None) == (dmatrix is None):
        _err("exactly one of coordinates or distance matrix required", "points")
    if coords is not None:
        coords = np.array(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] < 1:
            _err("coordinates must be a non-empty 2-D array", "points")
        if not np.all(np.isfinite(coords)):
            _err("non-finite coordinate", "points",
                 i=int(np.argwhere(~np.isfinite(coords))[0][0]))
        n = coords.shape[0]
        coords.setflags(write=False)
    else:
        dmatrix = np.array(dmatrix, dtype=float)
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
    if len(np.unique(subset)) != len(subset):
        uniq, counts = np.unique(subset, return_counts=True)
        _err("duplicate subset index", "subset", index=int(uniq[counts > 1][0]))

    values = np.array(values, dtype=float)
    if values.shape != subset.shape:
        _err("values length does not match subset length", "values",
             n_values=len(values), n_subset=len(subset))
    if not np.all(np.isfinite(values)):
        _err("non-finite value", "values",
             position=int(np.argwhere(~np.isfinite(values))[0][0]))

    if labels is not None:
        labels = [str(s) for s in labels]
        if len(labels) != n:
            _err("labels length does not match point count", "labels",
                 n_labels=len(labels), n=n)

    inst = MetricInstance(subset=subset, values=values, lipschitz_L=0.0,
                          lipschitz_computed=0.0, coords=coords, dmatrix=dmatrix,
                          labels=labels)
    _check_matrix(inst.distance_matrix(), euclidean=coords is not None)

    computed = lip_constant(inst, values, subset)
    if lipschitz is None:
        lipschitz = computed
    else:
        lipschitz = float(lipschitz)
        if not np.isfinite(lipschitz) or lipschitz < 0:
            _err("lipschitz constant must be a finite nonnegative real", "lipschitz",
                 value=lipschitz)
        if lipschitz < computed:
            _err("lipschitz constant below the computed constant on the subset",
                 "lipschitz", supplied=lipschitz, computed=computed)
    inst.lipschitz_L = float(lipschitz)
    inst.lipschitz_computed = float(computed)
    subset.setflags(write=False)
    values.setflags(write=False)
    return inst


def instance_from_arrays(*, coords=None, dmatrix=None, subset, values,
                         lipschitz=None, labels=None) -> MetricInstance:
    """Validate and build an instance directly from arrays."""
    return _build_checked(coords, dmatrix, subset, values, lipschitz, labels)


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
        return _build_checked(coords, dmatrix, raw["subset"], raw["values"],
                              raw.get("lipschitz"), raw.get("labels"))
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
    if len(np.unique(members)) != len(members):
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


def _ratio_block(dd, members, values, rows, cols):
    """``(d, ratios)`` between the members at positions ``rows`` and ``cols``
    (slices or index arrays), gathered from the distance matrix ``dd``."""
    d = dd[np.ix_(members[rows], members[cols])]
    return d, _ratio(values[rows][:, None], values[cols], d)


def _pair_blocks(dd, members, values):
    """Yield ``(a, d, ratios)`` over row blocks ``[a, b)`` of the member pairs.

    Entry ``[r, c]`` belongs to members ``a + r`` and ``a + c``, so the pairs
    ``i < j`` with ``i`` in the block are the entries ``c > r``; the others
    repeat a pair of the block or sit on the diagonal (ratio 0).  A block holds
    ``_SCAN_BLOCK // len(members)`` rows (at least one) against columns ``a..``.
    """
    step = max(1, _SCAN_BLOCK // max(1, len(members)))
    for a in range(0, len(members) - 1, step):
        yield (a, *_ratio_block(dd, members, values, slice(a, a + step), slice(a, None)))


def _top_pairs(dd, members, values):
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
    for a, _, ratios in _pair_blocks(dd, members, values):
        ratios[np.tril_indices(ratios.shape[0], 0, ratios.shape[1])] = 0.0
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


def _chunked_ball_lips(dd, members, values, d_row, radii) -> np.ndarray:
    """Ball constants at one center by the full scan of every pair in each ball.

    Points enter a ball in stable distance order and a tie at ``r`` stays
    outside.  The sorted points are read in row blocks ``[a, b)`` against the
    first ``b`` points, each computed by :func:`_ratio_block`; blocks end at
    every ball's point count and every ``_SCAN_BLOCK // (largest count)`` rows,
    so a ball of ``m`` points takes the running maximum of the blocks up to ``m``.
    Balls of at most one point, most of those the top-K walk leaves, are 0.
    """
    if np.count_nonzero(d_row < radii.max(initial=0.0)) <= 1:
        return np.zeros(len(radii))
    order = np.argsort(d_row, kind="stable")
    counts = np.searchsorted(d_row[order], radii, side="left")
    most = counts.max(initial=0)
    ends = np.union1d(counts, np.arange(0, most, max(1, _SCAN_BLOCK // max(1, most))))
    members, values = members[order[:most]], values[order[:most]]
    running = np.zeros(len(ends))
    for pos in range(1, len(ends)):
        _, block = _ratio_block(dd, members, values, slice(ends[pos - 1], ends[pos]),
                                slice(0, ends[pos]))
        running[pos] = max(running[pos - 1], block.max())
    return running[np.searchsorted(ends, counts)]


def ball_lips(instance: MetricInstance, members, values, centers, radii) -> np.ndarray:
    """Entry ``[c, j]``: Lipschitz constant of ``values`` (aligned with ``members``)
    over the members in the OPEN ball ``{i : d(centers[c], members[i]) < radii[j]}``.

    Only members some ball can hold (``d < max(radii)`` from some center) take
    part, in their given order.  :func:`_top_pairs` keeps the ``_TOP_K``
    largest of their pair ratios, streamed in row blocks, and these are walked
    in descending order: a ball's answer is the first pair whose farther end
    lies inside it.  That pair is a certificate: every pair left out is at most
    the smallest pair kept, so the answer is the same computed float as a scan
    of every pair in the ball.  A ball that holds no kept pair is 0 when every
    positive ratio was kept, and is otherwise scanned in full
    (``_chunked_ball_lips``, only for that center's unresolved radii, at once
    0 when the largest of them holds at most one member).  No
    array of |members| x |members| entries is built: the blocks hold at most
    ``_SCAN_BLOCK`` entries, the top-K walk ``_SCAN_BLOCK // _TOP_K`` centers.

    ``members`` must be distinct and ``values`` finite; ``centers`` are any point
    indices and ``radii`` any nonnegative reals, in any order and with repeats.
    """
    members, values = _member_values(instance, members, values)
    centers = _index_list(centers, instance.n,
                          f"centers must be a 1-D list of point indices in [0, {instance.n})")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not np.all(radii >= 0):
        raise ParameterError("radii must be a 1-D list of nonnegative reals")
    d_rows = instance.distances(centers, members)
    reach = np.flatnonzero((d_rows < radii.max(initial=0.0)).any(axis=0))
    d_rows, members, values = d_rows[:, reach], members[reach], values[reach]
    dd = instance.distance_matrix()
    first, second, top, complete = _top_pairs(dd, members, values)
    out = np.zeros((len(d_rows), len(radii)))
    step = max(1, _SCAN_BLOCK // max(1, len(top)))
    for lo in range(0, len(d_rows), step):
        # Minus the running minimum of the far ends: non-decreasing along a row,
        # and pair k lies in the r-ball once this is above -r.
        lead = d_rows[lo:lo + step, first]
        np.maximum(lead, d_rows[lo:lo + step, second], out=lead)
        np.negative(lead, out=lead)
        np.maximum.accumulate(lead, axis=1, out=lead)
        for row, lead_row in enumerate(lead, start=lo):
            hit = np.searchsorted(lead_row, -radii, side="right")
            found = hit < len(top)
            out[row, found] = top[hit[found]]
            if not complete and not np.all(found):
                out[row, ~found] = _chunked_ball_lips(dd, members, values, d_rows[row],
                                                      radii[~found])
    return out


def lip_constant(instance: MetricInstance, values, members) -> float:
    """Lipschitz constant of ``values`` over the index set ``members``.

    Supremum of ``|v(y1) - v(y2)| / d(y1, y2)`` over distinct pairs; ``0.0``
    for empty or singleton sets (empty-supremum convention).  The maximum over
    the row blocks of :func:`_pair_blocks`.
    """
    members, values = _member_values(instance, members, values)
    dd = instance.distance_matrix()
    return max((float(ratios.max()) for _, _, ratios in _pair_blocks(dd, members, values)),
               default=0.0)


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
