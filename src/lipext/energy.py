"""Weighted scale-indexed slope energies on the space and on the subset.

For a measure carried by the subset, the energy of a function at radius ``r``
is the mass-weighted sum of p-th powers of its Lipschitz constants on the open
``r``-balls around the support points.  Two mechanisms are verified at the
integrand level: restricting a function to the subset never increases the
per-point constants (so never the energy), and the penalized extension's
constants at the scheduled radii exceed the subset constants by at most a
chosen ``xi``.  The relaxed functionals themselves (infima over approximating
sequences) are out of scope; reports are labeled accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InstanceValidationError, ParameterError, as_float, is_real, positive_real,
                     shown)
from .metric import MetricInstance, _float_array, ball_lips
from .schedule import locality_radius
from .verification import INEQ_RTOL, CheckResult
from .extension import extend, schedule_for_instance


@dataclass
class MeasureData:
    """Nonnegative masses concentrated on the subset, with exponent p >= 1."""

    masses: np.ndarray
    p: float

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.masses > 0)


def validate_measure(instance: MetricInstance, masses=None, p: float = 1.0) -> MeasureData:
    """Check concentration on the subset and positive total mass.

    ``masses=None`` gives unit mass to every subset point.
    """
    if not (is_real(p) and math.isfinite(as_float(p)) and p >= 1):
        raise ParameterError(f"exponent p must be a finite real >= 1, got {shown(p)}")
    if masses is None:
        masses = np.zeros(instance.n)
        masses[instance.subset] = 1.0
    try:
        masses = _float_array(masses, "masses", "mass")
    except (TypeError, ValueError) as exc:
        raise InstanceValidationError(f"malformed field: {exc}", "masses") from exc
    if masses.shape != (instance.n,):
        raise InstanceValidationError(  # a scalar has no length
            "masses length does not match point count", "masses",
            {"n_masses": len(masses) if masses.ndim else None, "n": instance.n})
    if np.any(~np.isfinite(masses)) or np.any(masses < 0):
        bad = int(np.flatnonzero(~np.isfinite(masses) | (masses < 0))[0])
        raise InstanceValidationError("masses must be finite and nonnegative",
                                      "masses", {"index": bad})
    off = np.ones(instance.n, dtype=bool)
    off[instance.subset] = False
    if np.any(masses[off] != 0.0):
        bad = int(np.flatnonzero(masses * off)[0])
        raise InstanceValidationError("mass off the subset", "masses", {"index": bad})
    if masses.sum() <= 0.0:
        raise InstanceValidationError("total mass must be positive", "masses", {})
    return MeasureData(masses=masses, p=float(p))


@dataclass
class EnergySide:
    """One energy sum: per-support-point contributions m_i * Lip(., ball)^p."""

    radius: float
    total: float
    support: np.ndarray
    lips: np.ndarray
    contributions: np.ndarray

    def to_json(self) -> dict:
        return {"radius": self.radius, "total": self.total,
                "support": self.support.tolist(), "lip": self.lips.tolist(),
                "contributions": self.contributions.tolist()}


@dataclass
class EnergyReport:
    """Energies of a function on the whole space versus its restriction."""

    radius: float
    on_space: EnergySide
    on_subset: EnergySide

    def to_json(self) -> dict:
        return {"radius": self.radius, "E_X": self.on_space.total,
                "E_C": self.on_subset.total,
                "on_space": self.on_space.to_json(),
                "on_subset": self.on_subset.to_json()}


def energy(instance: MetricInstance, domain, values, measure: MeasureData,
           radii) -> list[EnergySide]:
    """Per radius r: sum over support of m_i * Lip(values, domain within open B_r(x_i))^p.

    Returns one side per entry of ``radii`` (positive and finite; repeats and
    any order are allowed).
    """
    radii = _positive_radii(radii)
    support = measure.support
    if not np.all(np.isin(support, domain)):
        raise ParameterError("domain must contain the measure support")
    lips = ball_lips(instance, domain, values, support, radii).T.copy()   # row per radius
    with np.errstate(over="ignore"):
        contrib = measure.masses[support] * lips ** measure.p
        totals = [_finite_total(c, "energy total") for c in contrib]
    return [EnergySide(radius=float(r), total=t, support=support, lips=lr, contributions=c)
            for r, t, lr, c in zip(radii, totals, lips, contrib)]


def _finite_total(terms: np.ndarray, name: str) -> float:
    total = float(terms.sum())      # under the caller's np.errstate(over="ignore")
    if not math.isfinite(total):
        raise ParameterError(f"{name} does not fit in binary64")
    return total


def _positive_radii(radii) -> np.ndarray:
    """``radii`` as a non-empty 1-D float array; raises unless all are positive and finite."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or not np.all((radii > 0) & np.isfinite(radii)):
        raise ParameterError("radii must be positive finite reals")
    return radii


def check_restriction_monotonicity(instance: MetricInstance, h_values,
                                   measure: MeasureData,
                                   radii) -> tuple[CheckResult, list[EnergyReport]]:
    """E_C(h restricted, r) <= E_X(h, r) at every radius (balls only shrink), and
    per radius the energies of ``h`` on the whole space and on the subset."""
    h_values = np.asarray(h_values, dtype=float)
    if h_values.shape != (instance.n,):
        raise ParameterError("h must be defined on every point")
    on_space = energy(instance, np.arange(instance.n), h_values, measure, radii)
    on_subset = energy(instance, instance.subset, h_values[instance.subset], measure, radii)
    reports = [EnergyReport(radius=side_x.radius, on_space=side_x, on_subset=side_c)
               for side_x, side_c in zip(on_space, on_subset)]
    worst = max(reports, key=lambda rep: rep.on_subset.total - rep.on_space.total)
    gap_worst = worst.on_subset.total - worst.on_space.total
    tol = INEQ_RTOL * max(1.0, *(rep.on_space.total for rep in reports))
    status = "pass" if gap_worst <= tol else "fail"
    check = CheckResult("restriction_monotonicity", status, measured=gap_worst,
                        allowed=tol, tolerance=tol,
                        witness={"radius": worst.radius, "E_C": worst.on_subset.total,
                                 "E_X": worst.on_space.total},
                        note="integrand-level verification")
    return check, reports


def check_extension_energy(instance: MetricInstance, measure: MeasureData,
                           radii_bar, xi: float, epsilon: float | None = None,
                           ) -> tuple[CheckResult, dict]:
    """Per-point and aggregated energy bounds for the penalized extension.

    For each requested radius the scheduled radius ``r`` is obtained from the
    locality conditions; then ``Lip(f, B_r(x_i)) <= Lip(g, C within
    B_rbar(x_i)) + xi`` per support point, and in aggregate ``E_X(f, r) <= sum
    m_i (Lip(g, .) + xi)^p``.  ``epsilon`` defaults to the instance constant.
    """
    radii_bar = _positive_radii(radii_bar)
    xi = positive_real("xi", xi)
    L = instance.lipschitz_L
    if epsilon is None:
        epsilon = L if L > 0 else 1.0
    epsilon = positive_real("epsilon", epsilon)
    allpts = np.arange(instance.n, dtype=np.intp)

    schedule = schedule_for_instance(instance, epsilon, allpts,
                                     locality=(float(radii_bar.min()), xi))
    field = extend(instance, schedule, allpts)

    slack = INEQ_RTOL * max(1.0, L)
    support = measure.support
    rows = []
    worst_gap = -math.inf
    worst_wit: dict = {}
    lips_g_all = ball_lips(instance, instance.subset, instance.values, support, radii_bar)
    r_sched = [float(rb) if schedule is None else
               locality_radius(schedule, float(rb), xi, L)[1] for rb in radii_bar]
    sides = energy(instance, allpts, field.values, measure, r_sched)
    for rb, r, lips_g, e_f in zip(radii_bar, r_sched, lips_g_all.T, sides):
        with np.errstate(over="ignore"):
            bound_total = _finite_total(measure.masses[support] * (lips_g + xi) ** measure.p,
                                        "energy bound")
        point_gap = e_f.lips - (lips_g + xi)    # finite, as the bound is
        agg_gap = e_f.total - bound_total
        j_bad = int(np.argmax(point_gap))
        gap = max(float(point_gap[j_bad]), agg_gap / max(1.0, bound_total))
        if gap > worst_gap:
            worst_gap = gap
            worst_wit = {"r_bar": float(rb), "r": r,
                         "point": int(support[j_bad]),
                         "lip_f": float(e_f.lips[j_bad]),
                         "lip_g_plus_xi": float(lips_g[j_bad] + xi),
                         "E_X": e_f.total, "bound": bound_total}
        rows.append({"r_bar": float(rb), "r": r, "E_X": e_f.total,
                     "bound": bound_total, "lip_f": e_f.lips.tolist(),
                     "lip_g": lips_g.tolist()})
    status = "pass" if worst_gap <= slack else "fail"
    check = CheckResult("extension_energy", status, measured=worst_gap,
                        allowed=slack, tolerance=slack, witness=worst_wit,
                        note="integrand-level verification")
    return check, {"xi": xi, "epsilon": epsilon,
                   "p": measure.p, "rows": rows}
