"""Finite metric spaces: validation, Lipschitz constants, balls and slope profiles.

A :class:`MetricInstance` is a validated finite metric space together with a
distinguished subset ``C`` carrying sample values ``g`` and a slope budget
``L >= Lip(g, C)``.  All balls in this package are OPEN: ``{i : d(center, i) < r}``.
Instances are immutable after validation and every operation here is pure: a
Euclidean instance holds no distance matrix, and computes each block it is asked for.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from math import isqrt
from typing import Mapping

import numpy as np

from .errors import InstanceValidationError, ParameterError, as_float, is_real

# Relative slack for the triangle-inequality scan on explicit matrices.
TRIANGLE_RTOL = 1e-9
# Float64 entries of one block (512 kB): the scans that read an array a block
# of rows at a time (the Euclidean fill, the pair scans, the quartile select, the
# extension's queries) take _row_blocks of it, and a triangle-scan tile holds one.
_BLOCK = 1 << 16
# _pool starts threads only for a loop that forms at least _FLOOR budgets of entries:
# below that a new thread costs more than it saves (README, "Memory", has the ladder).
_FLOOR = 64
# ball_lips answers a ball from the largest _TOP_K pair ratios when one of
# them lies inside it (a certificate for the exact maximum).
_TOP_K = 4096


def _pool(entries, tasks, work) -> list:
    """What ``work(take)`` returns on each worker that ran, the caller and ``w - 1`` threads,
    ``w = min(cap, len(tasks))``, each with its own state and the caller's ``np.errstate``:
    ``cap = min(CPUs in the affinity mask, 4)`` for a loop that forms ``entries >= _FLOOR *
    _BLOCK``, else 1.  ``take`` hands ``tasks`` out in order under a lock, each once, whatever
    ``w`` is.  A thread that cannot start is left out.  Once a task raises none is handed out,
    and after every join the exception of the lowest failing task (all below it ran) is raised."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = min(cpus or 1, 4) if entries >= _FLOOR * _BLOCK else 1
    lock, errors, done, errs = threading.Lock(), {}, [], np.geterr()
    handout = iter(range(len(tasks)))

    def claim():    # the next task's index, len(tasks) when none is left to hand out
        with lock:
            return len(tasks) if errors else next(handout, len(tasks))

    def run():
        held = [-1]     # the task in hand: a failure before the first ranks below every task
        try:
            with np.errstate(**errs):
                done.append(work(tasks[held[0]] for held[0] in iter(claim, len(tasks))))
        except BaseException as exc:    # a task left unrun must never read as done
            errors[held[0]] = exc
    threads = []
    for _ in range(min(cap, len(tasks)) - 1):
        with contextlib.suppress(RuntimeError):     # none to spare: the others take its tasks
            (thread := threading.Thread(target=run)).start()
            threads.append(thread)
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return done


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
        rows, cols = _point_list(rows, self.n), _point_list(cols, self.n)
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
    """``out = d(a, b)`` over the last axis, broadcast (``a[:, None]``, ``b[None]`` give all
    pairs): the bits of ``sqrt(sum(diff * diff, axis=-1))`` over one array ``diff = a - b``.
    From 1 to 7 coordinates the squared gaps are added into ``out`` left to right, as
    numpy sums so short an axis (``np.sum`` over it is about five times slower at 3),
    with ``out.size`` entries of ``scratch``; otherwise ``np.sum`` runs over the
    squares, in ``out.size * dim`` of them.  Overflow gives ``inf`` silently.
    ``fl(x - y) = -fl(y - x)``, so ``d(a, a)`` is symmetric with a +0 diagonal.
    """
    dim = a.shape[-1]
    with np.errstate(over="ignore"):
        if 0 < dim < 8:
            for k in range(dim):
                dst = scratch[:out.size].reshape(out.shape) if k else out
                np.subtract(a[..., k], b[..., k], out=dst)
                np.multiply(dst, dst, out=dst)
                if k:
                    out += dst
        else:
            sq = scratch[:out.size * dim].reshape(*out.shape, dim)
            np.subtract(a, b, out=sq)
            np.multiply(sq, sq, out=sq)
            np.sum(sq, axis=-1, out=out)
        return np.sqrt(out, out=out)


def _euclidean_matrix(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``d(a[i], b[j])`` for every ``i, j``, into ``out`` (a fresh array by default),
    in :func:`_row_blocks` of ``a`` against ``b`` whose width counts ``b``'s
    coordinates from 8 on, as :func:`_euclidean_block`'s scratch holds them."""
    out = np.empty((len(a), len(b))) if out is None else out
    width = len(b) * (b.shape[1] if b.shape[1] >= 8 else 1)
    scratch = np.empty(min(len(a) * width, max(_BLOCK, width)))
    for s in _row_blocks(len(a), width):
        _euclidean_block(a[s, None], b[None], out[s], scratch)
    return out


def _err(reason, field, **witness):
    raise InstanceValidationError(reason, field, witness)


def _check_matrix(d: np.ndarray) -> tuple[float, float]:
    """Check the metric axioms of an explicit matrix ``d``; raise on the first
    failure with its witness, else return the extents.

    ``d`` must be finite, with a zero diagonal, symmetric, nonnegative and positive
    off the diagonal.  Then an exact triangle-inequality scan: every ``d[i, k] <=
    d[i, j] + d[j, k] + tol`` with ``tol = TRIANGLE_RTOL * max(d)``.  It runs as a
    certificate over tiles with the pivot innermost, which reads ``d`` as symmetric,
    its row strips on up to 4 workers (see :func:`_triangle_violators`); only when it
    finds a violation does the serial per-pivot scan run, over the rows in one, to
    name the witness: the smallest pivot ``j``, then the first ``(i, k)`` in row-major order.
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

    Exact, not sampled: :func:`_triangle_strip` scans strips of ``max(1, isqrt(_BLOCK //
    n))`` rows on the workers of :func:`_pool`, each with its own tile of up to ``_BLOCK``
    entries (smaller tiles cost more per entry), strip and flags, OR-ed once all have joined.
    """
    n = d.shape[0]
    side = min(n, max(1, isqrt(_BLOCK // n)))

    def work(starts):
        # On a 32-byte boundary: numpy aligns to 16, and 16 off costs a fifth more time.
        tile_buf = np.empty(side * side * n + 3)
        tile_buf, strip_buf = tile_buf[-tile_buf.ctypes.data % 32 // 8:], np.empty(side * n)
        flagged = np.zeros(n, bool)
        for a in starts:
            _triangle_strip(d, tol, a, side, tile_buf, strip_buf, flagged)
        return flagged
    # A quarter of its n^2 (n + 1) / 2 sums, which are cheap: threads pay from 4 * _FLOOR budgets.
    strips = _pool(n * n * (n + 1) // 8, range(0, n, side), work)
    return np.flatnonzero(np.logical_or.reduce(strips))


def _triangle_strip(d, tol, a, side, tile_buf, strip_buf, flagged) -> None:
    """Rows ``[a, a + side)``: tiles of ``side`` columns ``[c, e)``, ``c >= a``, sum ``d[i, j]
    + d[k, j]`` (``d`` is exactly symmetric: the bits of ``d[i, j] + d[j, k]``), pivot ``j``
    innermost; ``min_j`` fills a strip that adds ``tol`` once (``fl(x + tol)`` is monotone).
    ``(i, k)`` violates iff ``(k, i)`` does, so ``flagged`` gets both ends of each one."""
    n, b = d.shape[0], min(a + side, d.shape[0])
    strip = strip_buf[:(b - a) * (n - a)].reshape(b - a, n - a)
    for c in range(a, n, side):
        e = min(c + side, n)
        tile = tile_buf[:(b - a) * (e - c) * n].reshape(b - a, e - c, n)
        np.add(d[a:b, None, :], d[None, c:e, :], out=tile)
        np.minimum.reduce(tile, axis=2, out=strip[:, c - a:e - a])
    strip += tol
    flagged[a:b] |= (bad := d[a:b, a:] > strip).any(axis=1)
    flagged[a:] |= bad.any(axis=0)


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
             n_values=len(values) if values.ndim else None, n_subset=len(subset))
    if not np.all(np.isfinite(values)):
        _err("non-finite value", "values",
             position=int(np.argwhere(~np.isfinite(values))[0][0]))

    pos = np.full(n, -1, dtype=np.intp)
    pos[subset] = np.arange(len(subset))
    pos.setflags(write=False)
    inst = MetricInstance(subset=subset, values=values, lipschitz_L=0.0, lipschitz_computed=0.0,
                          coords=coords, dmatrix=dmatrix, _subset_pos=pos)
    inst.extents = _check_matrix(dmatrix) if coords is None else _extents(inst, np.arange(n))

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


def _point_list(indices, n: int) -> np.ndarray:
    """``indices`` by :func:`_index_list` as the point indices of a distance block."""
    return _index_list(indices, n, f"rows and cols must be 1-D lists of point indices in [0, {n})")


def _distinct_members(instance: MetricInstance, members) -> np.ndarray:
    """``members`` as 1-D intp; raises unless they are distinct point indices."""
    members = _index_list(members, instance.n,
                          f"members must be a 1-D list of point indices in [0, {instance.n})")
    srt = np.sort(members)
    if np.any(srt[1:] == srt[:-1]):
        raise ParameterError("member indices must be distinct")
    return members


def _member_values(instance: MetricInstance, members, values, rows: bool = False):
    """``(members, values)`` as arrays; raises unless the members are distinct point
    indices and the values finite and aligned with them (with ``rows``, also in rows)."""
    members = _distinct_members(instance, members)
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != members.shape or values.ndim > 1 + rows:
        raise ParameterError("values must align with the member index list")
    if not np.all(np.isfinite(values)):
        raise ParameterError("values must be finite")
    return members, values


def _ratio(u, v, d, out=None, where=None):
    """``|u - v| / d`` with broadcasting, ``|u - v|`` where ``d`` is 0 or off ``where``.

    The one place a pair ratio is computed: ``|u - v|`` and ``|v - u|`` are the
    same float and the distances are exactly symmetric, so every scan of a pair
    reads the same bits whichever end comes first.
    """
    gaps = np.subtract(u, v, out=out)
    np.abs(gaps, out=gaps)
    return np.divide(gaps, d, out=gaps, where=d > 0 if where is None else where)


def _upper_blocks(instance: MetricInstance, points, blocks=None):
    """Yield ``(a, d, upper)``, ``d`` the bits of ``instance.distances(points[a:b], points[a:])``,
    over row blocks ``[a, b)`` of rows ``0..len(points) - 2`` (the last has no pair of its own)
    against columns ``a..``: ``blocks`` in increasing order, by default all :func:`_row_blocks`,
    the one walk of every all-pairs scan.

    Entry ``[r, c]`` belongs to points ``a + r`` and ``a + c``, so the pairs ``i < j``
    with ``i`` in the block are the entries ``c > r``, marked by ``upper`` (one mask per
    walk, from its first and largest block).  ``points`` is checked once, with ``distances``'
    message.  A cloud's blocks fill one buffer: its ``d`` lives only until the next is asked for.
    """
    points = _point_list(points, instance.n)
    m, cloud, upper = len(points), instance.dmatrix is None, None
    coords = instance.coords[points] if cloud else None
    for s in _row_blocks(m - 1, m) if blocks is None else blocks:
        a, shape = s.start, (s.stop - s.start, m - s.start)
        if upper is None:
            upper = np.arange(shape[1]) > np.arange(shape[0])[:, None]
            buf = np.empty(upper.size) if cloud else None
        d = (_euclidean_matrix(coords[s], coords[a:], buf[:shape[0] * shape[1]].reshape(shape))
             if cloud else instance.dmatrix[np.ix_(points[s], points[a:])])
        yield a, d, upper[:shape[0], :shape[1]]


def _extents(instance: MetricInstance, points: np.ndarray) -> tuple[float, float]:
    """(min positive or 0, max) distance among ``points``, by :func:`_pruned` or else one
    :func:`_upper_blocks`.  Rejects a non-finite distance, then a repeated point, each with
    its first witness in row-major order, which lies in the walk's blocks (``d`` is symmetric)."""
    pruned = _pruned(instance, points)
    if pruned is not None:
        return pruned
    dmin, dmax, duplicate = np.inf, 0.0, None
    for a, d, upper in _upper_blocks(instance, points):
        if not np.all(np.isfinite(d)):
            i, j = points[np.argwhere(~np.isfinite(d))[0] + a]
            _err("non-finite distance", "points", i=int(i), j=int(j))
        zero = d == 0.0
        if duplicate is None and np.count_nonzero(zero) > len(d):   # more than the diagonal
            duplicate = points[np.argwhere(zero & upper)[0] + a]
        dmin = min(dmin, float(np.min(d, where=d > 0, initial=np.inf)))
        dmax = max(dmax, float(d.max()))
    if duplicate is not None:
        _err("duplicate points (zero distance)", "points",
             i=int(duplicate[0]), j=int(duplicate[1]))
    return (dmin if dmin < np.inf else 0.0), dmax


def _pruned(instance: MetricInstance, points: np.ndarray) -> tuple[float, float] | None:
    """A cloud's extents from far fewer than its pairs (README, "Memory"), or None once a
    zero or non-finite distance turns up or the sweep would pass ``m (m - 1) / 20`` pairs,
    which cost about one walk of all ``m (m - 1) / 2`` (a sweep pair costs ten walk pairs).
    The closest pair: a sweep on the widest coordinate, in doubling chunks of offsets, that
    skips no pair below the least distance so far (each rounding is monotone).  The maximum:
    a walk of the points with ``(r + R + sqrt(dim) 2^-535) (1 + (dim + 8) 2^-50) >= LB``, ``r``
    the distances to the coordinate midrange, ``R = max r``, ``LB`` the longest from R's point."""
    if instance.dmatrix is not None or instance.coords.shape[1] == 0:
        return None
    coords = instance.coords[points]
    m, dim = coords.shape
    with np.errstate(over="ignore"):
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        k = np.argmax(hi - lo)
        srt = coords[np.argsort(coords[:, k])]
        xs, ahead, best, lag, chunk = srt[:, k], np.arange(1, m + 1), np.inf, 1, 1
        reach = m - ahead   # the later points p may meet: at first all of them
        while len(rows := np.flatnonzero(reach >= lag)):
            for s in _row_blocks(len(rows), chunk * dim):
                at = np.flatnonzero(reach[rows[s], None] >= np.arange(lag, lag + chunk))
                i, o = np.divmod(at, chunk)
                p, q = rows[s][i], rows[s][i] + lag + o
                d = _euclidean_block(srt[p], srt[q], np.empty(len(p)), np.empty(len(p) * dim))
                if not 0.0 < d.min() <= d.max() < np.inf:
                    return None
                best = min(best, float(d.min()))
            lag, chunk = lag + chunk, min(2 * chunk, max(1, _BLOCK // dim))
            reach = np.searchsorted(xs, xs + best, side="right") - ahead
            if reach.sum() > m * (m - 1) // 20:
                return None
        r = _euclidean_matrix(coords, (lo / 2 + hi / 2)[None])[:, 0]
        lb = _euclidean_matrix(coords, coords[np.argmax(r), None]).max()
        keep = (r + (r.max() + np.sqrt(dim) * 2.0 ** -535)) * (1.0 + (dim + 8) * 2.0 ** -50) >= lb
        dmax = max((float(d.max()) for _, d, _ in _upper_blocks(instance, points[keep])),
                   default=0.0)
    return ((best if best < np.inf else 0.0), dmax) if max(lb, dmax) < np.inf else None


def _pair_walk(instance: MetricInstance, points: np.ndarray, rows) -> None:
    """One walk of the pairs ``i < j`` of ``points`` for every fold of ``rows``, pairs
    ``(values, folds)``: in each block ``(a, d)`` of :func:`_upper_blocks` the ratios of
    each ``values`` (aligned with ``points``) are formed in turn in one buffer the size
    of ``d``, -1 (below every ratio) off the pairs with ``d > 0``, and read by its folds
    as ``fold(a, d, ratios)``."""
    for a, d, upper in _upper_blocks(instance, points):
        pair = d > 0
        pair &= upper
        off, ratios = ~pair, np.empty_like(d)
        for values, folds in rows:
            np.copyto(_ratio(values[a:a + len(d), None], values[a:], d, ratios, pair), -1.0,
                      where=off)
            for fold in folds:
                fold(a, d, ratios)


def _walk_scans(instance: MetricInstance, *scans) -> list:
    """The return values of ``scans``: generators that yield one list of requests
    ``(points, values, fold)``, then return once every fold has read every pair.
    The requests on the same points share one :func:`_pair_walk`, and those on
    bitwise equal ``values`` one ratio block in it."""
    walks = {}      # points' bytes -> (points, {values' bytes: (values, folds)})
    for points, values, fold in (ask for scan in scans for ask in next(scan)):
        rows = walks.setdefault(points.tobytes(), (points, {}))[1]
        rows.setdefault(values.tobytes(), (values, []))[1].append(fold)
    for points, rows in walks.values():
        _pair_walk(instance, points, rows.values())
    out = []
    for scan in scans:
        try:
            next(scan)
        except StopIteration as done:
            out.append(done.value)
    return out


class _SteepestPair:
    """Fold of :func:`_pair_walk`: ``best`` is ``(ratio, i, j)`` of the first steepest
    pair ``i < j`` with ``d > 0`` in row-major order, or None while none is read."""
    best = None

    def __call__(self, a, d, ratios):
        r, c = np.unravel_index(np.argmax(ratios), ratios.shape)
        if ratios[r, c] >= 0 and (self.best is None or ratios[r, c] > self.best[0]):
            self.best = (float(ratios[r, c]), a + r, a + c)


class _TopPairs:
    """Fold of :func:`_pair_walk`: ``pairs()`` is ``(i, j, ratio)`` of the pairs
    ``i < j`` of the ``_TOP_K`` largest positive ratios, in descending order.

    A running selection: the pairs of a block above the smallest kept ratio
    (above 0 until K are kept) join the kept ones, and the K largest of those
    stay.  Every pair left out is therefore at most the smallest pair kept,
    whichever of the ties at the K-th value are kept; fewer than K are kept
    only when fewer are positive, and then no positive pair is left out.
    """
    ends, ratio = np.empty((2, 0), np.intp), np.empty(0)     # (i, j) of each kept ratio

    def __call__(self, a, d, ratios):   # a flat scan: np.nonzero's order, a tenth of its cost
        at = np.flatnonzero(ratios > (self.ratio.min() if len(self.ratio) == _TOP_K else 0.0))
        self.ratio = np.concatenate([self.ratio, ratios.take(at)])
        self.ends = np.concatenate([self.ends, np.add(np.divmod(at, ratios.shape[1]), a)], 1)
        if len(self.ratio) > _TOP_K:
            keep = np.argpartition(self.ratio, len(self.ratio) - _TOP_K)[-_TOP_K:]
            self.ends, self.ratio = self.ends[:, keep], self.ratio[keep]

    def pairs(self):
        order = np.argsort(-self.ratio, kind="stable")
        return *self.ends[:, order], self.ratio[order]


def ball_lips(instance: MetricInstance, members, values, centers, radii) -> np.ndarray:
    """Entry ``[c, j]``: Lipschitz constant of ``values`` (aligned with ``members``)
    over the members in the OPEN ball ``{i : d(centers[c], members[i]) < radii[j]}``;
    for a 2-D ``values``, entry ``[v, c, j]`` is that of its row ``v``.

    A ball of at most one member, whose radius is at most its center's second-least
    distance, is 0 at once.  Only members within ``max(radii)`` of a center with two or
    more there take part, in their given order.  One :func:`_pair_walk` of their pairs
    keeps the ``_TOP_K`` largest ratios of each row (:class:`_TopPairs`), and these are
    read in descending order: a ball's answer is the first pair whose farther end lies
    inside it.  That pair is a certificate: every pair left out is at most the smallest
    pair kept, so the answer is the same computed float as a scan of every pair in the
    ball.  The far ends are read in growing prefixes of the kept pairs (the first 64, then
    4 times the last: 256, 1024, 4096), for the centers with a ball still open, one whose
    radius is at most the least far end read so far.  A ball open after every kept pair is
    0 when fewer than K pairs were kept, else the :class:`_SteepestPair` of one
    :func:`_pair_walk` of its members (0 without a pair): the same ratios, maxed over the
    same pairs.  No |members| x |members| array is built, and one ``d(centers, members)``
    serves every row: the prefixes read its columns at the kept pairs, in
    :func:`_row_blocks` of centers, and each 2-D mask flat, by ``np.flatnonzero``.

    ``members`` must be distinct and ``values`` finite; ``centers`` are any point
    indices and ``radii`` any nonnegative reals, in any order and with repeats.
    """
    members, values = _member_values(instance, members, values, rows=True)
    centers = _index_list(centers, instance.n,
                          f"centers must be a 1-D list of point indices in [0, {instance.n})")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not np.all(radii >= 0):
        raise ParameterError("radii must be a 1-D list of nonnegative reals")
    lips = _walk_scans(instance, _ball_lips(instance, members, list(np.atleast_2d(values)),
                                            instance.distances(centers, members), radii))[0]
    return lips if values.ndim == 2 else lips[0]


def _ball_lips(instance: MetricInstance, members, values, d_rows, radii):
    """:func:`ball_lips` of each vector in the list ``values``, with ``d_rows =
    d(centers, members)`` given: a scan of :func:`_walk_scans` over the members in reach."""
    # A ball of at most one member is 0: its radius is at most the second-least distance.
    live = np.zeros((len(d_rows), len(radii)), bool)
    for s in _row_blocks(len(d_rows), d_rows.shape[1]) if d_rows.shape[1] > 1 else ():
        live[s] = radii > np.partition(d_rows[s], 1, axis=1)[:, 1, None]
    reach = np.flatnonzero((d_rows < radii.max(initial=0.0))[live.any(axis=1)].any(axis=0))
    folds = [_TopPairs() for _ in values] if len(reach) > 1 else []
    yield [(members[reach], v[reach], fold) for v, fold in zip(values, folds)]
    out = np.zeros((len(values), len(d_rows), len(radii)))
    for v, lips, fold in zip(values, out, folds):
        first, second, top = fold.pairs()
        first, second = reach[first], reach[second]     # columns of d_rows
        # The running minimum of the far ends read so far: an entry is open while
        # its radius is at most this, and it settles at the first pair below it.
        low, a, b = np.full(len(d_rows), np.inf), 0, min(64, len(top))
        while len(rows := np.flatnonzero((live & (radii <= low[:, None])).any(1))) and a < len(top):
            for s in _row_blocks(len(rows), (b - a) * len(radii)):
                r = rows[s]
                at = r[:, None] * d_rows.shape[1]   # flat takes: a third faster than d_rows[r, c]
                far = np.maximum(d_rows.take(at + first[a:b]), d_rows.take(at + second[a:b]))
                least = far.min(axis=1)
                i, j = np.divmod(np.flatnonzero(live[r] & (radii <= low[r, None])
                                                & (radii > least[:, None])), len(radii))
                lips[r[i], j] = top[a + np.argmax(far[i] < radii[j, None], axis=1)]
                low[r] = np.minimum(low[r], least)
            a, b = b, min(4 * b, len(top))
        for row in rows if len(top) == _TOP_K else ():  # open balls hold no kept pair
            for j in np.flatnonzero(live[row] & (radii <= low[row])):
                ball = d_rows[row] < radii[j]
                _pair_walk(instance, members[ball], [(v[ball], [steepest := _SteepestPair()])])
                lips[row, j] = 0.0 if steepest.best is None else steepest.best[0]
    return out


def lip_constant(instance: MetricInstance, values, members) -> float:
    """Lipschitz constant of ``values`` over the index set ``members``.

    Supremum of ``|v(y1) - v(y2)| / d(y1, y2)`` over distinct pairs; ``0.0``
    for empty or singleton sets (empty-supremum convention).  The ratio of
    :class:`_SteepestPair`.
    """
    members, values = _member_values(instance, members, values)
    _pair_walk(instance, members, [(values, [steepest := _SteepestPair()])])
    return 0.0 if steepest.best is None else steepest.best[0]


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
