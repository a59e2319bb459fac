"""Doubly-indexed scale sequences with controlled ratios.

The schedule realizes a concrete sequence ``eps_k`` (truncated to the finitely
many indices an instance needs) with ratios

    r_k = eps_{k-1} / eps_k = r_star * 2**min(k - k_ref, 0),
    r_star = eps_eff / (3 * (L + eps_eff)),  eps_eff = min(epsilon, L),

so the ratios are constant ``r_star`` above the reference index and halve per
index below it, decaying to zero at the deep end.  Values are produced by a
single downward multiplicative sweep from the top scale, which makes the
reconstruction identity ``eps_{k-1} == r_k * eps_k`` hold bitwise for every
stored index; the scale at ``k_ref`` therefore reproduces the requested anchor
up to a few ulps (exactly, in typical cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ParameterError, ScheduleTooShallow, TrivialInstance, is_real,
                     positive_real)

# Truncation depth policy: six indices of margin below the smallest requested
# scale, then keep descending until the penalization tail bound is negligible.
EXTRA_DEPTH = 6
TAIL_REL = 1e-12
_UNDERFLOW = 1e-300
_MAX_STEPS = 6000


@dataclass
class ScaleSchedule:
    """Truncated scale sequence; immutable after construction."""

    k_min: int
    k_max: int
    k_ref: int
    eps: np.ndarray        # eps[i] = eps_{k_min + i}, strictly increasing
    ratio: np.ndarray      # ratio[i] = r_{k_min + 1 + i}
    r_star: float
    L_eff: float
    eps_eff: float
    anchor: float

    def __post_init__(self):
        self.eps.setflags(write=False)
        self.ratio.setflags(write=False)

    def eps_at(self, k: int) -> float:
        if not self.k_min <= k <= self.k_max:
            raise ParameterError(f"scale index {k} outside stored range "
                                 f"[{self.k_min}, {self.k_max}]")
        return float(self.eps[k - self.k_min])

    def ratio_at(self, k: int) -> float:
        if not self.k_min < k <= self.k_max:
            raise ParameterError(f"ratio index {k} outside stored range "
                                 f"({self.k_min}, {self.k_max}]")
        return float(self.ratio[k - self.k_min - 1])

    def virtual_ratio(self, k: int) -> float:
        """Ratio the generation law would assign at any index (0.0 on underflow)."""
        return math.ldexp(self.r_star, min(k - self.k_ref, 0))

    def virtual_eps(self, k: int) -> float:
        """Scale the generation law would produce at any index (0.0 on underflow)."""
        if self.k_min <= k <= self.k_max:
            return self.eps_at(k)
        if k > self.k_max:
            e = self.eps_at(self.k_max)
            for j in range(self.k_max + 1, k + 1):
                e = e / self.virtual_ratio(j)
                if not math.isfinite(e):
                    raise ParameterError(f"scale overflow extending to index {k}")
            return e
        e = self.eps_at(self.k_min)
        for j in range(self.k_min, k, -1):
            e = self.virtual_ratio(j) * e
            if e < _UNDERFLOW:
                return 0.0
        return e

    @property
    def schedule_id(self) -> str:
        return (f"L={self.L_eff!r};eps={self.eps_eff!r};anchor={self.anchor!r};"
                f"k=[{self.k_min},{self.k_max}]")

    def to_triples(self) -> list[dict]:
        out = []
        for i, k in enumerate(range(self.k_min, self.k_max + 1)):
            out.append({
                "k": k,
                "eps_k": float(self.eps[i]),
                "ratio_k": float(self.ratio[i - 1]) if i > 0 else None,
            })
        return out


def build_schedule(L: float, epsilon: float, anchor: float,
                   span_low: float, span_high: float) -> ScaleSchedule:
    """Build the truncated scale sequence covering ``[span_low, span_high]``.

    ``anchor`` places the reference index (defaults used by callers: the
    diameter of the evaluation set); ``span_low`` should be the smallest
    requested verification radius divided by 64, ``span_high`` twice the
    instance diameter.  The effective tolerance is ``min(epsilon, L)``: an
    extension within that budget is a fortiori within the requested one.

    Raises :class:`TrivialInstance` when ``L == 0`` (callers must take the
    constant shortcut) and :class:`ParameterError` for invalid parameters.
    """
    for name, v in (("L", L), ("epsilon", epsilon), ("anchor", anchor),
                    ("span_low", span_low), ("span_high", span_high)):
        if not (is_real(v) and math.isfinite(v)):
            raise ParameterError(f"{name} must be a finite real, got {v!r}")
    # Python floats from here on: a numpy float32 would round the arithmetic below.
    L, epsilon, anchor = float(L), float(epsilon), float(anchor)
    span_low, span_high = float(span_low), float(span_high)
    if L < 0:
        raise ParameterError("L must be nonnegative")
    if L == 0:
        raise TrivialInstance("L = 0: use the constant/McShane shortcut")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if anchor <= 0:
        raise ParameterError("anchor must be positive")
    if not 0 < span_low < span_high:
        raise ParameterError("need 0 < span_low < span_high")

    eps_eff = min(epsilon, L)
    r_star = min(eps_eff / (3.0 * (L + eps_eff)), 1.0 / 6.0)
    k_ref = 0

    # Upward extent: indices above k_ref keep the constant ratio r_star.
    top = anchor
    k_max = 0
    while top < span_high:
        top = top / r_star
        k_max += 1
        if not math.isfinite(top) or k_max > _MAX_STEPS:
            raise ParameterError("span_high unreachable from anchor")

    # Single downward sweep; every stored value is ratio * (value above it).
    tail_cap = TAIL_REL * L * (span_high / 2.0)
    eps_desc = [top]
    ratios_desc: list[float] = []
    k = k_max
    low_idx: int | None = None
    while True:
        cur = eps_desc[-1]
        if low_idx is None and cur <= span_low:
            low_idx = k
        deep_enough = (low_idx is not None and k <= low_idx - EXTRA_DEPTH
                       and cur * (L + eps_eff) <= tail_cap)
        if deep_enough:
            break
        r_k = math.ldexp(r_star, min(k - k_ref, 0))
        nxt = r_k * cur
        if nxt < _UNDERFLOW or r_k < _UNDERFLOW:
            raise ScheduleTooShallow(
                "extend schedule: required scales underflow binary64",
                required_span_low=0.0)
        ratios_desc.append(r_k)
        eps_desc.append(nxt)
        k -= 1
        if k_max - k > _MAX_STEPS:
            raise ParameterError("schedule generation did not terminate")

    k_min = k
    eps = np.array(eps_desc[::-1], dtype=float)
    ratio = np.array(ratios_desc[::-1], dtype=float)
    return ScaleSchedule(k_min=k_min, k_max=k_max, k_ref=k_ref, eps=eps,
                         ratio=ratio, r_star=r_star, L_eff=L, eps_eff=eps_eff,
                         anchor=anchor)


def locality_radius(schedule: ScaleSchedule, r_bar: float, xi: float,
                    L: float) -> tuple[int, float]:
    """Largest stored k with ``eps_{k+3} < r_bar`` and ``3 L eps_k/eps_{k+1} < xi``.

    Returns ``(k, eps_{k-2})``: the radius at which the extension's local
    constant is bounded by the subset's constant at ``r_bar`` plus ``xi``.
    Raises :class:`ScheduleTooShallow` with the required depth when the stored
    range runs out before both conditions hold.
    """
    positive_real("r_bar", r_bar)
    positive_real("xi", xi)
    if not (L >= 0 and math.isfinite(L)):
        raise ParameterError("L must be a nonnegative finite real")

    for k in range(schedule.k_max - 3, schedule.k_min + 1, -1):
        if schedule.eps_at(k + 3) < r_bar and 3.0 * L * schedule.ratio_at(k + 1) < xi:
            return k, schedule.eps_at(k - 2)

    # Determine how deep a rebuild must go, extending the generation law
    # virtually below the stored range.
    k = schedule.k_max - 3
    for _ in range(_MAX_STEPS):
        if (schedule.virtual_eps(k + 3) < r_bar
                and 3.0 * L * schedule.virtual_ratio(k + 1) < xi):
            required = schedule.virtual_eps(k - 2)
            if required > 0.0:
                raise ScheduleTooShallow(
                    f"extend schedule: locality conditions first hold at k={k}, "
                    f"needs scales down to {required!r}",
                    required_span_low=required)
            break
        if schedule.virtual_eps(k - 2) <= 0.0:
            break
        k -= 1
    raise ScheduleTooShallow(
        "extend schedule: locality conditions unreachable in binary64",
        required_span_low=0.0)
