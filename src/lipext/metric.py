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
# Rows per ball_lips gather: a step reads at most this many rows of a ball.
_ROW_CHUNK = 128


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
        """Full n-by-n matrix; Euclidean geometry is expanded once and cached."""
        if self.dmatrix is not None:
            return self.dmatrix
        if self._dcache is None:
            self._dcache = _euclidean_matrix(self.coords)
            self._dcache.setflags(write=False)
        return self._dcache

    def distances(self, rows, cols) -> np.ndarray:
        """Distance submatrix d[rows, cols] with shape (len(rows), len(cols))."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        return self.distance_matrix()[np.ix_(rows, cols)]

    def distance(self, i: int, j: int) -> float:
        return float(self.distance_matrix()[i, j])

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
        pos = self.subset_positions()[np.asarray(point_indices, dtype=np.intp)]
        if np.any(pos < 0):
            raise ParameterError("values requested at indices outside the subset")
        return self.values[pos]

    def check_scale(self) -> float:
        """Scale used by relative tolerances in inequality checks."""
        return max(1.0, float(np.max(np.abs(self.values))),
                   self.lipschitz_L * self.diameter())


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _err(reason, field, **witness):
    raise InstanceValidationError(reason, field, witness)


def _check_matrix(d: np.ndarray, euclidean: bool) -> None:
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
    off = d + np.eye(n)
    if np.any(off <= 0.0):
        i, j = np.argwhere(off <= 0.0)[0]
        reason = "duplicate points (zero distance)" if euclidean else "zero off-diagonal distance"
        _err(reason, "points", i=int(i), j=int(j))
    if not euclidean:
        # Euclidean matrices satisfy the triangle inequality by construction;
        # explicit matrices get the full scan, one middle point at a time.
        tol = TRIANGLE_RTOL * float(d.max())
        for j in range(n):
            slack = d[:, j, None] + d[None, j, :] + tol
            bad = d > slack
            if np.any(bad):
                i, k = np.argwhere(bad)[0]
                _err("triangle inequality violated", "points",
                     i=int(i), j=int(j), k=int(k),
                     d_ik=float(d[i, k]), bound=float(d[i, j] + d[j, k]))


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

    # Reject non-integer entries outright: the intp conversion below would
    # truncate 0.9 to 0 and read True as 1.
    for pos, entry in enumerate(np.asarray(subset, dtype=object).ravel()):
        if isinstance(entry, (bool, np.bool_)) or not isinstance(entry, (int, np.integer)):
            _err("subset entries must be integers", "subset", position=pos)
    subset = np.array(subset, dtype=np.intp)
    if subset.ndim != 1 or len(subset) == 0:
        _err("subset must be a non-empty index list", "subset")
    if np.any(subset < 0) or np.any(subset >= n):
        _err("subset index out of range", "subset",
             index=int(subset[(subset < 0) | (subset >= n)][0]), n=n)
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


def pair_ratios(instance: MetricInstance, members, values) -> np.ndarray:
    """Matrix of ``|v_i - v_j| / d(m_i, m_j)`` over ``members``, 0 on the diagonal.

    :func:`lip_constant` is its maximum; :func:`ball_lips` reads it over the
    members its balls can reach.
    """
    members = np.asarray(members, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    dist = instance.distances(members, members)
    gaps = np.abs(values[:, None] - values[None, :])
    return np.divide(gaps, dist, out=gaps, where=dist > 0)


def ball_lips(instance: MetricInstance, members, values, centers, radii) -> np.ndarray:
    """Entry ``[c, j]``: Lipschitz constant of ``values`` (aligned with ``members``)
    over the members in the OPEN ball ``{i : d(centers[c], members[i]) < radii[j]}``.

    Only members some ball can hold (``d < max(radii)`` from some center) enter
    the :func:`pair_ratios` block, in their given order.  Points enter a ball in
    stable distance order and a tie at ``r`` stays outside.  The sorted points
    are read in row chunks ``[a, b)`` against the first ``b`` points; chunks end
    at every ball's point count and every ``_ROW_CHUNK`` rows, so a ball of
    ``m`` points takes the running maximum of the chunks up to ``m``.
    """
    members = np.asarray(members, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if values.shape != members.shape:
        raise ParameterError("values must align with the member index list")
    radii = np.asarray(radii, dtype=float)
    d_rows = instance.distances(centers, members)
    reach = np.flatnonzero((d_rows < radii.max(initial=0.0)).any(axis=0))
    d_rows = d_rows[:, reach]
    ratios = pair_ratios(instance, members[reach], values[reach])
    orders = np.argsort(d_rows, axis=1, kind="stable")
    out = np.zeros((len(d_rows), len(radii)))
    for row, order in enumerate(orders):
        counts = np.searchsorted(d_rows[row, order], radii, side="left")
        ends = np.union1d(counts, np.arange(0, counts.max(initial=0), _ROW_CHUNK))
        running = np.zeros(len(ends))
        for pos in range(1, len(ends)):
            block = ratios[np.ix_(order[ends[pos - 1]:ends[pos]], order[:ends[pos]])]
            running[pos] = max(running[pos - 1], block.max())
        out[row] = running[np.searchsorted(ends, counts)]
    return out


def lip_constant(instance: MetricInstance, values, members) -> float:
    """Lipschitz constant of ``values`` over the index set ``members``.

    Supremum of ``|v(y1) - v(y2)| / d(y1, y2)`` over distinct pairs; ``0.0``
    for empty or singleton sets (empty-supremum convention).
    """
    members = np.asarray(members, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if values.shape != members.shape:
        raise ParameterError("values must align with the member index list")
    if len(np.unique(members)) != len(members):
        raise ParameterError("member indices must be distinct")
    return float(pair_ratios(instance, members, values).max(initial=0.0))


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
