"""Penalized extension of subset values to the whole space.

Each anchor ``x`` in the subset carries a convex piecewise-linear penalization
``pen_x`` of distance whose slope on the scale band ``(eps_{k-2}, eps_{k-1})``
is the local slope ``S_k(x)`` of the data around ``x`` inflated by three times
the budget times the band ratio.  The extension is the infimal envelope

    f(y) = min over anchors x of  g(x) + pen_x(d(x, y)),

which restricts to ``g`` on the subset, stays within budget ``L + eps`` and,
unlike the plain McShane cones ``g(x) + L d(x, y)``, keeps small local slopes
small near every anchor.

The infinitely many slope bands accumulating at distance 0 are truncated: the
first generated band's slope is used constantly on ``(0, eps_{k_min}]``. This
over-estimates the penalization by at most ``eps_{k_min}`` times that slope,
which the schedule's depth policy keeps below ``1e-12 * L * diameter``,
invisible at every verification tolerance; the error is one-sided (never
below the untruncated function), so all lower-bound inequalities survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ScheduleTooShallow, as_float, positive_real, shown
from .metric import (MetricInstance, _extents, _first_non_integer, _index_list, _point_list,
                     _pool, _row_blocks, ball_lips)
from .schedule import SPAN_UNDERFLOW, ScaleSchedule, build_schedule

BANK_RULE = ("profiles must be a non-empty bank of finite rows "
             "over increasing positive breakpoints")


@dataclass
class ProfileBank:
    """Convex piecewise-linear penalizations of several anchors on one breakpoint grid.

    Row ``i`` belongs to point ``anchors[i]``.  With ``m`` breakpoints the
    distance axis splits into ``m + 1`` regions: ``(0, breakpoints[0]]``, the
    bands ``(breakpoints[j-1], breakpoints[j])`` and the tail beyond the last
    breakpoint.  ``slopes[i, j]`` is row ``i``'s slope on region ``j`` (base,
    band slopes, tail) and ``cumulative[i, j]`` its value at the region's left
    edge (0 at distance 0; exact prefix sums, so evaluation is continuous at
    every breakpoint).
    """

    anchors: np.ndarray         # (rows,) point indices
    breakpoints: np.ndarray     # (m,) shared by every row
    slopes: np.ndarray          # (rows, m+1)
    cumulative: np.ndarray      # (rows, m+1)

    def pen(self, T: np.ndarray) -> np.ndarray:
        """Evaluate row ``i`` at every distance in ``T[i]``; ``T`` has shape (rows, nq)."""
        J = np.searchsorted(self.breakpoints, T, side="left")
        out = T - np.concatenate(([0.0], self.breakpoints))[J]     # past the region's left edge
        J += np.arange(T.shape[0])[:, None] * (len(self.breakpoints) + 1)   # flat [i, J]
        out *= np.take(self.slopes, J)      # in place: * and + commute, so the same bits
        return np.add(out, np.take(self.cumulative, J), out=out)


@dataclass
class ExtensionField:
    """Evaluated extension on a query set, with provenance.

    ``anchors[i]`` is the lowest point index attaining the minimum for query
    ``i``; ``localization[i]`` is ``"full"`` for a full-infimum evaluation or
    ``{"k": k, "xbar": x}`` when a localized ball was used.
    """

    queries: np.ndarray
    values: np.ndarray
    anchors: np.ndarray
    localization: list
    schedule: ScaleSchedule | None
    g_abs_max: float

    def to_json_entries(self) -> list[dict]:
        return [{"index": int(q), "value": float(v), "argmin_anchor": int(a),
                 "localization": loc}
                for q, v, a, loc in zip(self.queries, self.values, self.anchors,
                                        self.localization)]


# ---------------------------------------------------------------------------
# slopes and profiles


def _bank(anchors: np.ndarray, S: np.ndarray, schedule: ScaleSchedule,
          L: float) -> ProfileBank:
    """Rows from slope maps: ``S[i, j]`` is anchor ``i``'s ``S_k`` at ``k = k_min + 2 + j``."""
    bands = S + (3.0 * L) * schedule.ratio      # ratio[j] = r_{k_min + 1 + j}
    tail = S[:, -1:] + (3.0 * L) * schedule.r_star
    slopes = np.concatenate([bands[:, :1], bands, tail], axis=1)
    if np.any(np.diff(slopes, axis=1) < 0) or np.any(slopes < 0):
        raise ParameterError("slope map is not non-decreasing within bounds")
    cumulative = np.zeros_like(slopes)
    # add.accumulate runs left to right: the same prefix sums as a loop.
    with np.errstate(over="ignore"):    # nondecreasing rows: an overflow ends in inf
        np.cumsum(slopes[:, :-1] * np.diff(schedule.eps, prepend=0.0), axis=1,
                  out=cumulative[:, 1:])
    if not np.all(np.isfinite(cumulative[:, -1])):
        raise ParameterError("penalization at the top scale does not fit in binary64")
    return ProfileBank(anchors=np.asarray(anchors, dtype=np.intp),
                       breakpoints=schedule.eps, slopes=slopes, cumulative=cumulative)


def build_profiles(instance: MetricInstance, schedule: ScaleSchedule) -> ProfileBank:
    """The bank of every anchor, row ``i`` for ``subset[i]``: band k carries
    ``S_k + 3 L r_{k-1}``, ``S_k`` the constant of g on C in the open eps_k-ball."""
    top = float(schedule.eps[-1]) / schedule.r_star     # eps_{k_max + 1}: k_max >= 0
    if not math.isfinite(top):
        raise ParameterError(f"scale overflow extending to index {schedule.k_max + 1}")
    radii = np.append(schedule.eps[2:], top)
    S = ball_lips(instance, instance.subset, instance.values, instance.subset, radii)
    return _bank(instance.subset, S, schedule, instance.lipschitz_L)


# ---------------------------------------------------------------------------
# evaluation


def _family(instance: MetricInstance, bank: ProfileBank, points) -> tuple[np.ndarray, np.ndarray]:
    """``T = d(bank.anchors, points)`` and the family rows ``phi = g(anchors) + pen(T)``:
    the one place a row is formed, so every bank is read through its own anchors."""
    T = instance.distances(bank.anchors, points)
    phi = bank.pen(T)
    return T, np.add(phi, instance.g_at(bank.anchors)[:, None], out=phi)


def _argmin_lowest(phi: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column minima and, among attaining rows, the lowest anchor point index."""
    best = phi.min(axis=0)
    sentinel = np.iinfo(np.intp).max
    lowest = np.where(phi == best[None, :], anchors[:, None], sentinel).min(axis=0)
    return best, lowest.astype(np.intp)


def _cones(instance: MetricInstance, l_prime: float, queries) -> tuple[np.ndarray, np.ndarray]:
    """``(upper, lower)``: per query ``y``, the min over the subset of ``g(x) + l' d(x, y)``
    and the max of ``g(x) - l' d(x, y)``, from one pass over query blocks."""
    lp = as_float(l_prime)
    if not (math.isfinite(lp) and lp >= instance.lipschitz_computed):
        raise ParameterError(
            f"envelope constant {shown(l_prime, str)} below Lip(g, C) = "
            f"{instance.lipschitz_computed}: result would not extend g")
    queries = _point_list(queries, instance.n)
    g, upper, lower = instance.values[:, None], np.empty(len(queries)), np.empty(len(queries))

    def work(blocks):
        for s in blocks:
            d = instance.distances(instance.subset, queries[s])
            d *= lp
            np.min(g + d, axis=0, out=upper[s])
            np.max(np.subtract(g, d, out=d), axis=0, out=lower[s])
    with np.errstate(over="ignore"):    # an overflowing cone is +-inf, correctly rounded
        _pool(len(queries) * len(instance.subset),
              _row_blocks(len(queries), len(instance.subset)), work)
    return upper, lower


def mcshane_upper_many(instance: MetricInstance, l_prime: float, queries) -> np.ndarray:
    return _cones(instance, l_prime, queries)[0]


def _constant_field(instance: MetricInstance, queries: np.ndarray) -> ExtensionField:
    # Lip(g, C) = 0: the constant extension preserves every local constant at 0.
    const = float(instance.values[0])
    if instance.lipschitz_L == 0.0:
        anchors = np.full(len(queries), int(instance.subset.min()), dtype=np.intp)
    else:
        anchors = np.empty(len(queries), dtype=np.intp)
        for s in _row_blocks(len(queries), len(instance.subset)):
            dists = instance.distances(instance.subset, queries[s])
            anchors[s] = _argmin_lowest(dists, instance.subset)[1]
    return ExtensionField(
        queries=queries, values=np.full(len(queries), const),
        anchors=anchors, localization=["full"] * len(queries), schedule=None,
        g_abs_max=float(np.max(np.abs(instance.values))))


def _as_query_array(instance: MetricInstance, queries) -> np.ndarray:
    if queries is None:
        return np.arange(instance.n, dtype=np.intp)
    if (_first_non_integer(queries) is not None or np.ndim(queries) != 1
            or np.size(queries) == 0):
        raise ParameterError("queries must be a non-empty 1-D index list")
    return _index_list(queries, instance.n, "query index out of range")


def _infimum(instance: MetricInstance, schedule: ScaleSchedule | None,
             queries: np.ndarray, profiles: ProfileBank | None,
             localized: bool) -> tuple[ExtensionField, tuple | None]:
    """The penalized infimum on ``queries``, over every anchor or over each query's
    localization ball (see :func:`extend_localized`): the one place that rule is written.

    A localized pass also returns, per query, the nearest anchor ``xbar``, the least
    exclusion margin ``phi - (f + eps_{k-1} L / 3)`` over the bank's rows outside the
    ball (``inf`` if none; constant data excludes none) and the first such row's anchor.
    """
    if instance.lipschitz_computed == 0.0:
        field = _constant_field(instance, queries)
        return field, (field.anchors, np.full(len(queries), np.inf), field.anchors)
    if schedule is None:
        raise ParameterError("a schedule is required when Lip(g, C) > 0")
    if profiles is None:
        profiles = build_profiles(instance, schedule)
    if len(profiles.anchors) == 0:
        raise ParameterError(BANK_RULE)
    values, margin, tops = (np.empty(len(queries)) for _ in range(3))
    anchors, near, far = (np.empty(len(queries), dtype=np.intp) for _ in range(3))
    localization = ["full"] * len(queries)
    eps, L = schedule.eps, instance.lipschitz_L

    def work(blocks):   # every step is per query (column): blocks give the bits of one pass
        for s in blocks:
            T, phi = _family(instance, profiles, queries[s])
            tops[s] = T.max(axis=0)
            if not localized:
                values[s], anchors[s] = _argmin_lowest(phi, profiles.anchors)
                continue
            d_near, near[s] = _argmin_lowest(T, profiles.anchors)     # nearest, lowest index
            # eps_k of the smallest stored k with d(y, xbar) < eps_{k-2}, else inf.
            jk = np.searchsorted(eps, d_near, side="right") + 2
            radius = np.append(eps, np.full(3, np.inf))[jk]     # jk <= len(eps) + 2
            out = instance.distances(profiles.anchors, near[s]) >= radius
            values[s], anchors[s] = _argmin_lowest(np.where(out, np.inf, phi), profiles.anchors)
            lower = values[s] + eps[np.minimum(jk, len(eps)) - 1] * L / 3.0  # unread if "full"
            gaps = np.where(out, phi - lower, np.inf)
            margin[s], far[s] = gaps.min(axis=0), profiles.anchors[gaps.argmin(axis=0)]
            localization[s] = [{"k": int(k), "xbar": int(x)} if np.isfinite(r) else "full"
                               for k, x, r in zip(schedule.k_min + jk, near[s], radius)]
    _pool(len(queries) * len(profiles.anchors),
          _row_blocks(len(queries), len(profiles.anchors)), work)
    dmax = float(tops.max())
    if schedule.eps_at(schedule.k_max) < dmax:
        raise ScheduleTooShallow(
            f"extend schedule: top scale {schedule.eps_at(schedule.k_max)!r} below "
            f"the largest anchor-query distance {dmax!r}",
            required_span_high=2.0 * dmax)
    field = ExtensionField(queries=queries, values=values, anchors=anchors,
                           localization=localization, schedule=schedule,
                           g_abs_max=float(np.max(np.abs(instance.values))))
    return field, (near, margin, far) if localized else None


def extend(instance: MetricInstance, schedule: ScaleSchedule | None,
           queries=None, profiles: ProfileBank | None = None) -> ExtensionField:
    """Evaluate the penalized infimal envelope on the query indices.

    Restriction to the subset is exact (the anchor at the query attains the
    minimum).  When ``Lip(g, C) == 0`` the constant extension is returned
    directly and ``schedule`` is ignored.  Tie-break: lowest anchor index.
    """
    return _infimum(instance, schedule, _as_query_array(instance, queries),
                    profiles, False)[0]


def extend_localized(instance: MetricInstance, schedule: ScaleSchedule | None,
                     queries, *, profiles: ProfileBank | None = None) -> ExtensionField:
    """Evaluate f on every query over the anchors of one ball only, in one pass.

    Query ``y`` is localized at its nearest anchor ``xbar`` of the bank (lowest
    point index on ties): with k the smallest stored index such that
    ``d(y, xbar) < eps_{k-2}``, only the bank's anchors in the open eps_k-ball at
    ``xbar`` compete.  Anchors outside it sit at least ``eps_{k-1} L / 3``
    above the minimum, so the restricted minimum equals the full one bitwise.
    ``localization[i]`` records ``{"k": k, "xbar": xbar}``, or ``"full"`` when
    no stored k is admissible and the query keeps every anchor.  Ties and
    constant data as in :func:`extend`.  ``check_localization`` runs this pass
    and reads each query's exclusion margin from it.
    """
    return _infimum(instance, schedule, _as_query_array(instance, queries), profiles, True)[0]


# ---------------------------------------------------------------------------
# post-processing


def truncate_bounded(field: ExtensionField, bound: float) -> ExtensionField:
    """Clamp values to [-bound, bound]; 1-Lipschitz post-composition.

    ``bound`` must dominate sup |g| so the restriction to the subset is
    untouched.  Anchor provenance refers to the pre-clamp minimum.
    """
    bound = positive_real("bound", bound)
    if bound < field.g_abs_max:
        raise ParameterError(
            f"bound {bound} below sup |g| = {field.g_abs_max}: "
            "restriction to the subset would change")
    return replace(field, values=np.clip(field.values, -bound, bound))


def cutoff_support(field: ExtensionField, instance: MetricInstance,
                   epsilon: float) -> ExtensionField:
    """Multiply by the bump chi = median(0, 2 - (eps/2M) d(., C), 1).

    chi is 1 where d(., C) <= 2M/eps (in particular on the subset, so the
    restriction is untouched) and 0 where d(., C) >= 4M/eps.  The underlying
    field must have been built with budget L + eps/2 for the product to stay
    within L + eps.  M = 0 returns the field unchanged.
    """
    epsilon = positive_real("epsilon", epsilon)
    m_sup = max(float(np.max(np.abs(field.values))), field.g_abs_max)
    if m_sup == 0.0:
        return field
    queries, d_c = field.queries, np.empty(len(field.queries))

    def work(blocks):   # d(., C) per query (column): blocks give the bits of one pass
        for s in blocks:
            d_c[s] = instance.distances(instance.subset, queries[s]).min(axis=0)
    _pool(len(queries) * len(instance.subset),
          _row_blocks(len(queries), len(instance.subset)), work)
    chi = np.clip(2.0 - (epsilon / (2.0 * m_sup)) * d_c, 0.0, 1.0)
    return replace(field, values=chi * field.values)


# ---------------------------------------------------------------------------
# orchestration helpers


def evaluation_diameters(instance: MetricInstance, queries=None) -> tuple[float, float]:
    """(min positive distance, max distance) over subset union queries: the
    instance's extents when that is every point."""
    queries = _as_query_array(instance, queries)
    pts = np.sort(np.concatenate([instance.subset, queries]))   # not np.unique: numpy.ma
    pts = pts[np.append(True, pts[1:] != pts[:-1])]
    return instance.extents if len(pts) == instance.n else _extents(instance, pts)


def schedule_for_instance(instance: MetricInstance, epsilon: float,
                          queries=None, anchor: float | None = None,
                          locality: tuple[float, float] | None = None,
                          ) -> ScaleSchedule | None:
    """Schedule spanning the evaluation set, or ``None`` when Lip(g, C) = 0.

    ``span_high`` is twice the diameter of subset-union-queries; ``span_low``
    is one sixty-fourth of the smallest positive pair distance; ``anchor``
    defaults to the diameter.  With ``locality=(r_bar, xi)`` the smallest
    scale of interest is at most ``r_bar``, and :func:`build_schedule`'s one
    sweep descends on to the depth :func:`locality_radius` needs; underflow,
    of ``span_low`` included, raises :class:`ScheduleTooShallow` with
    ``required_span_low`` 0.0.
    """
    if locality is not None:
        r_bar, xi = positive_real("r_bar", locality[0]), positive_real("xi", locality[1])
        locality = (r_bar, xi)
    if instance.lipschitz_computed == 0.0:
        return None
    dmin, dmax = evaluation_diameters(instance, queries)
    anchor = dmax if anchor is None else anchor
    span_low = (dmin if locality is None else min(dmin, r_bar)) / 64.0
    if span_low == 0.0:     # a positive scale so small that over 64 it underflows
        raise ScheduleTooShallow(SPAN_UNDERFLOW, required_span_low=0.0)
    return build_schedule(instance.lipschitz_L, epsilon, anchor, span_low, 2.0 * dmax, locality)
