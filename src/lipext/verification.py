"""Executable checks for every quantitative property of the construction.

Each check returns a :class:`CheckResult`; a failing result always carries a
concrete witness (indices plus measured-versus-allowed values).  Tolerances
are relative to the instance's value and distance scales: 1e-9 for
inequalities, 1e-12 for identities.  Every pair scan reads every pair at every
size, and no check draws a sample: the global-budget scan reads every pair of
the queries; the locality and McShane-fragment scans are certified exact (a ball
answered from the top-K pairs of ``ball_lips`` is certified exact, and so is
any other ball, answered from the top-K pairs of its own members); the
inf-family check is certified exact (the minimum is scanned in full, and the
members only on the pairs their slope certificate cannot clear).  These three
pair scans are scans of :func:`~lipext.metric._walk_scans`: a check called
alone walks its pairs itself, and :func:`run_suite` walks the queries' pairs
once for all three (the fragment's when its reach is every query), each reading
every distance block.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import metric
from .errors import ParameterError, positive_real
from .metric import (TRIANGLE_RTOL, MetricInstance, _check_radii, _distinct_members,
                     _first_non_integer, _index_list, _ratio, _row_blocks, _walk_scans,
                     ball_lips)
from .schedule import ScaleSchedule, locality_radius
from .extension import (BANK_RULE, ExtensionField, ProfileBank, _cones, _family, _infimum,
                        build_profiles, extend, mcshane_upper_many, schedule_for_instance)

SCHEMA_VERSION = "1"    # of every JSON report
IDENTITY_RTOL = 1e-12
INEQ_RTOL = 1e-9
_U = 2.0 ** -53         # unit roundoff of binary64


@dataclass
class CheckResult:
    name: str
    status: str                 # "pass" | "fail" | "info" | "skipped"
    measured: float | None = None
    allowed: float | None = None
    tolerance: float | None = None
    witness: dict | None = None
    note: str = ""

    def __post_init__(self):
        if self.status == "fail" and not self.witness:
            raise ParameterError(f"check {self.name}: fail status requires a witness")

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    params: dict
    schedule_triples: list | None = None
    fragments: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": "verification_report",
                "passed": self.passed, "params": self.params,
                "checks": [c.to_json() for c in self.checks],
                "schedule": self.schedule_triples,
                "fragments": self.fragments}


def check_restriction(field: ExtensionField, instance: MetricInstance) -> CheckResult:
    """f(x) == g(x) on every evaluated subset point, tolerance 1e-12 (1 + max |g|)."""
    pos = instance.subset_positions()[field.queries]
    onc = np.flatnonzero(pos >= 0)
    tol = IDENTITY_RTOL * (1.0 + float(np.max(np.abs(instance.values))))
    if len(onc) == 0:
        return CheckResult("restriction", "skipped", tolerance=tol,
                           note="no evaluated point lies in the subset")
    gaps = np.abs(field.values[onc] - instance.values[pos[onc]])
    worst = int(np.argmax(gaps))
    measured = float(gaps[worst])
    witness = {"index": int(field.queries[onc[worst]]),
               "f": float(field.values[onc[worst]]),
               "g": float(instance.values[pos[onc[worst]]])}
    status = "pass" if measured <= tol else "fail"
    return CheckResult("restriction", status, measured=measured, allowed=tol,
                       tolerance=tol, witness=witness)


def check_global_lipschitz(field: ExtensionField, instance: MetricInstance,
                           budget: float) -> CheckResult:
    """Pairwise slope of f over the evaluated points stays within ``budget``.

    Every pair of queries is read, at every size, by
    :class:`~lipext.metric._SteepestPair`, so the witness is the first steepest
    pair ``i < j`` in row-major order; pairs of a repeated query (distance 0)
    are skipped.
    """
    return _walk_scans(instance, _global_lipschitz(field, instance, budget))[0]


def _global_lipschitz(field, instance, budget):
    q = field.queries
    steepest = metric._SteepestPair()
    yield [(q, field.values, steepest)]
    if steepest.best is None:
        return CheckResult("global_lipschitz", "skipped", note="no distinct pairs")
    measured, i, j = steepest.best
    slack = INEQ_RTOL * max(1.0, budget)
    witness = {"i": int(q[i]), "j": int(q[j]), "ratio": measured}
    status = "pass" if measured <= budget + slack else "fail"
    return CheckResult("global_lipschitz", status, measured=measured,
                       allowed=budget + slack, tolerance=slack,
                       witness=witness, note="exhaustive")


def check_envelope_sandwich(field: ExtensionField, instance: MetricInstance,
                            l_budget: float) -> CheckResult:
    """lower envelope <= f <= upper envelope at the budget constant, pointwise."""
    upper, lower = _cones(instance, l_budget, field.queries)
    tol = IDENTITY_RTOL * instance.check_scale()
    viol = np.maximum(field.values - upper, lower - field.values)
    worst = int(np.argmax(viol))
    measured = float(viol[worst])
    witness = {"index": int(field.queries[worst]), "f": float(field.values[worst]),
               "lower": float(lower[worst]), "upper": float(upper[worst])}
    status = "pass" if measured <= tol else "fail"
    return CheckResult("envelope_sandwich", status, measured=measured, allowed=tol,
                       tolerance=tol, witness=witness)


def check_step2(instance: MetricInstance, profiles: ProfileBank,
                schedule: ScaleSchedule) -> CheckResult:
    """phi_x(y) >= g(y) + eps_{k-2} L for bank rows x, subset y, d(x, y) in the k-bracket."""
    g = instance.values
    L = instance.lipschitz_L
    T, phi = _family(instance, profiles, instance.subset)
    J = np.searchsorted(schedule.eps, T, side="right")
    valid = (J >= 2) & (J <= len(schedule.eps) - 1) & (T > 0)
    if not np.any(valid):
        return CheckResult("step2_lower_bound", "skipped",
                           note="no subset pair falls in a stored bracket")
    eps_km2 = schedule.eps[np.clip(J, 2, None) - 2]
    margin = phi - (g[None, :] + L * eps_km2)
    margin = np.where(valid, margin, np.inf)
    tol = INEQ_RTOL * instance.check_scale()
    xi_pos, y_pos = np.unravel_index(np.argmin(margin), margin.shape)
    measured = float(margin[xi_pos, y_pos])
    witness = {"x": int(profiles.anchors[xi_pos]), "y": int(instance.subset[y_pos]),
               "k": int(schedule.k_min + J[xi_pos, y_pos]),
               "phi": float(phi[xi_pos, y_pos]),
               "bound": float(g[y_pos] + L * eps_km2[xi_pos, y_pos])}
    skipped = int(np.sum((T > 0) & ~valid))
    note = f"{skipped} pairs outside stored brackets" if skipped else ""
    status = "pass" if measured >= -tol else "fail"
    return CheckResult("step2_lower_bound", status, measured=measured,
                       allowed=-tol, tolerance=tol, witness=witness, note=note)


def check_profile_legality(profiles: ProfileBank,
                           schedule: ScaleSchedule) -> CheckResult:
    """Convexity, slope bounds, pen(0) = 0 and exact breakpoint continuity."""
    cap = schedule.L_eff + schedule.eps_eff
    slopes, bp = profiles.slopes, profiles.breakpoints
    rows = len(profiles.anchors)
    at_bp = profiles.pen(np.broadcast_to(bp, (rows, len(bp))))
    ok = (np.all(np.diff(slopes, axis=1) >= 0, axis=1)
          & np.all((slopes >= 0) & (slopes <= cap), axis=1)
          & (profiles.pen(np.zeros((rows, 1)))[:, 0] == 0.0)
          & (profiles.cumulative[:, 1] == slopes[:, 0] * bp[0])
          & np.all(at_bp == profiles.cumulative[:, 1:], axis=1))
    if not np.all(ok):
        bad = int(np.argmin(ok))
        return CheckResult(
            "profile_legality", "fail", measured=float(np.max(slopes[bad, 1:-1])),
            allowed=cap, witness={"anchor": int(profiles.anchors[bad])})
    return CheckResult("profile_legality", "pass", allowed=cap,
                       note=f"{rows} profiles, cap L+eps = {cap!r}")


def check_schedule_laws(schedule: ScaleSchedule, epsilon: float) -> CheckResult:
    """Ratio bound, monotone ratios, 3 eps_{k-2} <= eps_{k-1}, exact reconstruction."""
    s = schedule
    bound = epsilon / (3.0 * (s.L_eff + epsilon))
    law = [math.ldexp(s.r_star, min(k, 0))
           for k in range(s.k_min + 1, s.k_max + 1)]
    checks = {
        "ratio_bound": bool(np.all(s.ratio <= bound) and np.all(s.ratio <= s.r_star)),
        "ratio_monotone": bool(np.all(np.diff(s.ratio) >= 0)),
        "triple_gap": bool(np.all(3.0 * s.eps[:-2] <= s.eps[1:-1])),
        "reconstruction": bool(np.all(s.eps[:-1] == s.ratio * s.eps[1:])),
        "generation_law": bool(np.array_equal(s.ratio, np.array(law))),
        "r_star_sixth": s.r_star <= 1.0 / 6.0,
    }
    bad = [k for k, v in checks.items() if not v]
    if bad:
        return CheckResult("schedule_laws", "fail",
                           witness={"violated": bad, "k_min": s.k_min, "k_max": s.k_max})
    return CheckResult("schedule_laws", "pass",
                       note=f"{len(s.eps)} scales, r_star={s.r_star!r}")


def check_localization(instance: MetricInstance, field: ExtensionField,
                       profiles: ProfileBank) -> CheckResult:
    """Localized evaluation equals the full infimum bitwise on every query.

    One localized pass of the evaluation behind :func:`extend_localized`
    localizes each query at its nearest anchor of the bank (lowest index on
    ties); the first mismatch in query order is the witness.  The same pass
    gives the exclusion margins, read once the values match: the bank's anchors
    outside a query's localization ball sit at least eps_{k-1} L / 3 above the
    minimum.  The worst margin is the first query attaining the minimum, with
    the first anchor in bank order attaining it there.  Queries with no
    admissible k keep every anchor and are counted as fallback evaluations.
    """
    tol = INEQ_RTOL * instance.check_scale()
    loc, (xbars, worst, far) = _infimum(instance, field.schedule, field.queries, profiles, True)
    bad = np.flatnonzero(loc.values != field.values)
    if len(bad):
        qi = bad[0]
        got, full = float(loc.values[qi]), float(field.values[qi])
        return CheckResult(
            "localization", "fail", measured=got, allowed=full,
            witness={"query": int(field.queries[qi]), "xbar": int(xbars[qi]),
                     "localized": got, "full": full})
    fallbacks = loc.localization.count("full")
    note = f"{fallbacks} fallback evaluations" if fallbacks else ""
    c = int(np.argmin(worst))       # the first query at the minimum
    worst_margin = None if worst[c] == np.inf else float(worst[c])  # inf: nothing excluded
    if worst_margin is None or worst_margin >= -tol:
        return CheckResult("localization", "pass", measured=worst_margin,
                           tolerance=tol, note=note)
    witness = {"query": int(field.queries[c]), "xbar": int(xbars[c]),
               "k": loc.localization[c]["k"], "anchor": int(far[c])}
    return CheckResult("localization", "fail", measured=worst_margin,
                       allowed=-tol, tolerance=tol, witness=witness,
                       note="exclusion margin violated; " + note)


def check_locality_preservation(instance: MetricInstance, field: ExtensionField,
                                x_bars, r_bar: float, xi: float) -> CheckResult:
    """Lip(f, B_r(x)) <= Lip(g, C within B_rbar(x)) + xi at the scheduled r.

    Checks every center ``x`` in the non-empty ``x_bars`` at once and reports
    the worst: the first failing center with the largest Lip(f, B_r(x)), or,
    if all pass, the first with the largest.
    """
    message = "x_bars must be a non-empty 1-D index list"
    x_bars = _index_list(x_bars, instance.n, message)
    if len(x_bars) == 0:
        raise ParameterError(message)
    if field.schedule is None:
        return CheckResult("locality_preservation", "skipped",
                           note="constant extension: local constants are zero")
    k, r = locality_radius(field.schedule, r_bar, xi, instance.lipschitz_L)
    members, first = np.unique(field.queries, return_index=True)
    lhs = ball_lips(instance, members, field.values[first], x_bars, [r])[:, 0]
    rhs = ball_lips(instance, instance.subset, instance.values, x_bars, [r_bar])[:, 0] + xi
    slack = INEQ_RTOL * max(1.0, instance.lipschitz_L)
    ok = lhs <= rhs + slack
    pool = np.flatnonzero(~ok) if not np.all(ok) else np.arange(len(x_bars))
    w = int(pool[np.argmax(lhs[pool])])
    witness = {"x_bar": int(x_bars[w]), "k": int(k), "r": float(r),
               "lip_f": float(lhs[w]), "lip_g_plus_xi": float(rhs[w]),
               "ball_points": int(np.sum(instance.distances([x_bars[w]], members) < r))}
    return CheckResult("locality_preservation", "pass" if ok[w] else "fail",
                       measured=float(lhs[w]), allowed=float(rhs[w] + slack),
                       tolerance=slack, witness=witness,
                       note=f"worst of {len(x_bars)} centers")


def check_inf_family(instance: MetricInstance, profiles: ProfileBank, members,
                     budget: float) -> CheckResult:
    """The pointwise min of the bank's rows on ``members`` is ``budget``-Lipschitz.

    Row ``i``, ``phi_i = g(anchors[i]) + pen_i(d(anchors[i], .))``, is built in
    column blocks.  One blocked pass over the member pairs scans the minimum
    exactly.  Row ``i`` is ``s_i = max |slopes[i]|``-Lipschitz in exact
    arithmetic, and computed ``|phi_i(y) - phi_i(x)| <= s_i (d + tau) + 2 E_i +
    J_i``: ``tau`` bounds the triangle defect of the distances (the Euclidean
    fill's rounding, or ``TRIANGLE_RTOL * max(d)`` plus the validator's),
    ``E_i`` the rounding of ``g + cumulative + slope (t - left)`` at both ends
    and at the breakpoints below the diameter, ``J_i`` the continuity defects
    there (0 for a legal bank).  A computed ratio exceeds ``limit = budget +
    slack`` only where ``d < delta_i = 2 (s_i tau + 2 E_i + J_i) (1 + 8u) /
    (limit - s_i (1 + 8u))`` (``inf`` if that is not positive); every row is
    scanned exactly there, so the first row over ``limit`` has exhaustive bits.
    """
    return _walk_scans(instance, _inf_family(instance, profiles, members, budget))[0]


def _inf_family(instance, profiles, members, budget):
    members = _distinct_members(instance, members)
    bp, cum, rows = profiles.breakpoints, profiles.cumulative, len(profiles.anchors)
    if not (rows and np.shape(profiles.slopes) == np.shape(cum) == (rows, len(bp) + 1)
            and np.isfinite(profiles.slopes).all() and np.isfinite(cum).all()
            and np.isfinite(bp).all() and np.all(np.diff(bp, prepend=0.0) > 0)):
        raise ParameterError(BANK_RULE)
    slack = INEQ_RTOL * max(1.0, budget)
    g, diam, limit = instance.g_at(profiles.anchors), instance.diameter(), budget + slack
    if instance.coords is None:     # the validator's slack and the rounding of its sum
        tau = (TRIANGLE_RTOL + 5.0 * _U) * diam
    else:       # (dim + 4) u / 2 per computed distance, sqrt(dim 2**-1074) on underflow
        dim = instance.coords.shape[1]
        tau = 2.0 * (dim + 4) * _U * diam + 3.0 * math.sqrt(dim) * 2.0 ** -537
    s, below = np.abs(profiles.slopes).max(axis=1), bp < diam   # only these can be straddled
    err = 6.0 * _U * (np.abs(g) + np.abs(cum).sum(axis=1) + s * (diam + bp[below].sum()))
    jumps = np.abs(cum[:, 1:] - profiles.pen(np.broadcast_to(bp, (rows, len(bp)))))
    margin = limit - s * (1.0 + 8.0 * _U)
    reach = np.inf if np.any(margin <= 0) else np.max(
        2.0 * (s * tau + 2.0 * err + (1.0 + 2.0 * _U) * jumps[:, below].sum(axis=1))
        * (1.0 + 8.0 * _U) / margin)
    fmin = np.empty(len(members))
    for q in _row_blocks(len(members), rows):
        fmin[q] = _family(instance, profiles, members[q])[1].min(axis=0)
    # The rows at a block's close points, phi, reach |C| x |members| at worst.
    got, lips = 0.0, np.zeros(rows)

    def fold(a, d, ratios):     # rows a..b-1 against columns a..
        nonlocal got
        got = max(got, float(ratios.max()))
        close = d < reach
        if np.count_nonzero(close) > len(d):            # more than the diagonal
            first, second = np.divmod(np.flatnonzero(np.triu(close, 1)), close.shape[1])
            pts, at = np.unique(np.concatenate([first, second]) + a, return_inverse=True)
            phi, at = _family(instance, profiles, members[pts])[1], at.reshape(2, -1)
            for q in _row_blocks(len(first), rows):
                pair = _ratio(phi[:, at[1, q]], phi[:, at[0, q]], d[first[q], second[q]])
                np.maximum(lips, pair.max(axis=1), out=lips)
    yield [(members, fmin, fold)]
    over = np.flatnonzero(lips > limit)
    if len(over):
        return CheckResult("inf_family", "skipped", measured=float(lips[over[0]]), allowed=limit,
                           witness={"member": int(over[0])},
                           note="precondition violated: family member exceeds the constant")
    return CheckResult("inf_family", "pass" if got <= limit else "fail", measured=got,
                       allowed=limit, tolerance=slack, witness={"n_functions": rows})


def mcshane_comparison(instance: MetricInstance, r_list, epsilon: float,
                       field: ExtensionField, centers=None) -> dict:
    """Side-by-side radius profiles of the McShane extension and the paper field.

    Returns a report fragment: per center, the local-constant profile of the
    plain L-cone envelope against the profile of ``field``, the penalized
    extension built at ``epsilon`` and evaluated on the domain of both.
    """
    return _walk_scans(instance, _mcshane_comparison(instance, r_list, epsilon, field, centers))[0]


def _mcshane_comparison(instance, r_list, epsilon, field, centers):
    r_list = _check_radii(r_list)
    domain, first = np.unique(field.queries, return_index=True)
    ms = mcshane_upper_many(instance, instance.lipschitz_L, domain)
    if centers is None:
        centers = instance.subset[np.isin(instance.subset, domain)]
    message = "center must belong to the domain"
    centers = _index_list(centers, instance.n, message)
    if not np.all(np.isin(centers, domain)):
        raise ParameterError(message)
    lips_ms, lips_f = yield from metric._ball_lips(
        instance, domain, [ms, field.values[first]], instance.distances(centers, domain),
        r_list)
    rows = [{"center": int(c), "radii": r_list.tolist(), "mcshane": p_ms.tolist(),
             "extension": p_f.tolist(), "gap": (p_ms - p_f).tolist()}
            for c, p_ms, p_f in zip(centers, lips_ms, lips_f)]
    return {"epsilon": float(epsilon), "centers": rows}


def _distance_quartiles(instance: MetricInstance) -> list[float]:
    """``np.quantile(d[d > 0], [0.25, 0.5, 0.75]).tolist()`` for the instance's
    distances ``d``, or ``[1.0]`` when none is positive, without building ``d``.

    A validated metric is symmetric and positive exactly off its diagonal, so
    positive rank ``p`` of ``d`` is rank ``p // 2`` among the ``n (n - 1) / 2``
    pairs ``i < j`` of :func:`~lipext.metric._upper_blocks`.  Positive float64
    values sort as their bit patterns read as int64 do, so each wanted rank is
    selected by radix on those bits, 16 at a time, one walk of the blocks per
    pass.  For each known prefix of a wanted entry it histograms the next 16
    bits of the entries sharing the prefix or, once at most ``_BLOCK`` entries
    share it, keeps them for ``np.partition``.  Four passes at most, and no
    sampling.  A pass's blocks run on :func:`~lipext.metric._pool`'s workers, each with
    its own block buffer; they add to one histogram per prefix under a lock and append
    to one kept list, whose order a selection does not read.

    numpy's default ``linear`` method reads the sorted values ``a, b`` at
    ``floor(v)`` and ``floor(v) + 1`` for the virtual index ``v = (N - 1) q``,
    ``N = n (n - 1)``, and returns ``_lerp``'s ``a + (b - a) t``, or
    ``b - (b - a) (1 - t)`` when ``t = v - floor(v) >= 0.5``.
    """
    n = instance.n
    total = n * (n - 1)
    if total == 0:
        return [1.0]
    spots = [(total - 1) * q for q in (0.25, 0.5, 0.75)]
    # rank -> (the known top bits of its entry, entries below them, entries with them)
    todo = {p // 2: (0, 0, total // 2) for v in spots for p in (math.floor(v), math.floor(v) + 1)}
    found, lock = {}, threading.Lock()
    for known in range(0, 64, 16):
        if not todo:
            break
        acc = {key: [] if key[2] <= metric._BLOCK else np.zeros(1 << 16, dtype=np.intp)
               for key in set(todo.values())}

        def work(take):     # every worker appends to the kept lists, and adds under the lock
            for _, d, upper in metric._upper_blocks(instance, np.arange(n), take):
                bits = d[upper].view(np.int64)
                head = bits >> (64 - known) if known else None
                for (prefix, _, _), got in acc.items():
                    x = bits[head == prefix] if known else bits
                    if isinstance(got, list):
                        got.append(x)
                    elif len(x):    # counted over the digits' own range, one block at a time
                        digits = (x >> (48 - known)).astype(np.intp, copy=False)
                        digits &= 0xFFFF
                        digits -= (lo := digits.min())
                        with lock:
                            got[lo:lo + digits.max() + 1] += np.bincount(digits)
        metric._pool(total // 2, _row_blocks(n - 1, n), work)
        pending, todo = todo, {}
        for (prefix, below, _), got in acc.items():
            ranks = [r for r, key in pending.items() if key[0] == prefix]
            if isinstance(got, list):
                kept = np.partition(np.concatenate(got), [r - below for r in ranks])
                found.update((r, kept[r - below]) for r in ranks)
                continue
            ends = np.cumsum(got)
            for r in ranks:
                digit = int(np.searchsorted(ends, r - below, side="right"))
                key = (prefix << 16 | digit, below + int(ends[digit] - got[digit]), int(got[digit]))
                if known < 48:
                    todo[r] = key
                else:
                    found[r] = key[0]
    out = []
    for v in spots:
        t = v - math.floor(v)
        a, b = np.array([found[(math.floor(v) + k) // 2] for k in (0, 1)],
                        dtype=np.int64).view(np.float64).tolist()
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def run_suite(instance: MetricInstance, epsilon: float, *, xi: float = 0.1,
              r_bar: float | None = None, seed: int = 0) -> VerificationReport:
    """Full check battery over one instance.

    Builds the schedule (deep enough for the locality conditions), extends to
    every point, and runs each check; the cone-versus-penalized profile
    comparison is attached as an informational fragment.  ``seed`` is validated
    and recorded in ``params``; no check reads it.
    """
    epsilon = positive_real("epsilon", epsilon)
    if _first_non_integer([seed]) is not None or seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    queries = np.arange(instance.n, dtype=np.intp)
    qs = _distance_quartiles(instance)
    mcshane_radii = sorted(set(qs))
    r_bar = qs[0] if r_bar is None else r_bar
    schedule = schedule_for_instance(instance, epsilon, queries, locality=(r_bar, xi))
    params = {"epsilon": epsilon, "xi": float(xi), "r_bar": float(r_bar),
              "seed": int(seed)}

    L, triples = instance.lipschitz_L, None
    if schedule is None:
        field = extend(instance, None, queries)
        checks = [
            check_restriction(field, instance),
            _global_lipschitz(field, instance, L + epsilon),
            check_envelope_sandwich(field, instance, L + epsilon),
            CheckResult("schedule_laws", "skipped", note="constant data: no schedule"),
            CheckResult("profile_legality", "skipped", note="constant data: no profiles"),
            CheckResult("step2_lower_bound", "skipped", note="constant data"),
            CheckResult("localization", "skipped", note="constant data"),
            check_locality_preservation(instance, field, instance.subset[:1], r_bar, xi),
            CheckResult("inf_family", "skipped", note="constant data"),
        ]
    else:
        profiles = build_profiles(instance, schedule)
        field = extend(instance, schedule, queries, profiles=profiles)
        budget, triples = L + schedule.eps_eff, schedule.to_triples()
        checks = [
            check_schedule_laws(schedule, epsilon),
            check_profile_legality(profiles, schedule),
            check_restriction(field, instance),
            _global_lipschitz(field, instance, budget),
            check_envelope_sandwich(field, instance, budget),
            check_step2(instance, profiles, schedule),
            check_localization(instance, field, profiles),
            check_locality_preservation(instance, field, instance.subset, r_bar, xi),
            _inf_family(instance, profiles, queries, budget),
        ]
    # The scans left in the list share one pair walk with the fragment's, last.
    scans = [c for c in checks if not isinstance(c, CheckResult)]
    *walked, frag = _walk_scans(instance, *scans, _mcshane_comparison(
        instance, mcshane_radii, epsilon, field, None))
    walked = iter(walked)
    checks = [c if isinstance(c, CheckResult) else next(walked) for c in checks]
    return VerificationReport(checks=checks, params=params, schedule_triples=triples,
                              fragments={"mcshane_comparison": frag})
