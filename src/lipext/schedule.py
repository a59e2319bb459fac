"""Doubly-indexed scale sequences with controlled ratios.

The schedule realizes a concrete sequence ``eps_k`` (truncated to the finitely
many indices an instance needs) with ratios

    r_k = eps_{k-1} / eps_k = r_star * 2**min(k, 0),
    r_star = eps_eff / (3 * (L + eps_eff)),  eps_eff = min(epsilon, L),

so the ratios are constant ``r_star`` above the reference index 0 and halve
per index below it, decaying to zero at the deep end.  Values are produced by
a single downward multiplicative sweep from the top scale, which makes the
reconstruction identity ``eps_{k-1} == r_k * eps_k`` hold bitwise for every
stored index; the scale at index 0 therefore reproduces the requested anchor
up to a few ulps (exactly, in typical cases).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ScheduleTooShallow, as_float, is_real,
                     positive_real, shown)

# Truncation depth policy: six indices of margin below the smallest requested
# scale, then keep descending until the penalization tail bound is negligible.
EXTRA_DEPTH = 6
TAIL_REL = 1e-12
_UNDERFLOW = 1e-300
_MAX_STEPS = 6000
SPAN_UNDERFLOW = "extend schedule: required scales underflow binary64"
_UNREACHABLE = "extend schedule: locality conditions unreachable in binary64"


@dataclass
class ScaleSchedule:
    """Truncated scale sequence; immutable after construction."""

    k_min: int
    k_max: int
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

    @property
    def schedule_id(self) -> str:
        return (f"L={self.L_eff!r};eps={self.eps_eff!r};anchor={self.anchor!r};"
                f"k=[{self.k_min},{self.k_max}]")

    def to_triples(self) -> list[dict]:
        return [{"k": self.k_min + i, "eps_k": float(e),
                 "ratio_k": float(self.ratio[i - 1]) if i > 0 else None}
                for i, e in enumerate(self.eps)]


def build_schedule(L: float, epsilon: float, anchor: float,
                   span_low: float, span_high: float,
                   locality: tuple[float, float] | None = None) -> ScaleSchedule:
    """Build the truncated scale sequence covering ``[span_low, span_high]``.

    ``anchor`` is the scale at the reference index 0 (defaults used by
    callers: the diameter of the evaluation set); ``span_low`` should be the
    smallest requested verification radius divided by 64, ``span_high`` twice
    the instance diameter.  The effective tolerance is ``min(epsilon, L)``: an
    extension within that budget is a fortiori within the requested one.

    With ``locality=(r_bar, xi)`` the sweep also finds ``k_loc``, the first k
    with ``eps_{k+3} < r_bar`` and ``3 L r_{k+1} < xi``.  If the ``span_low``
    stop comes before ``eps_{k_loc-2}``, the depth :func:`locality_radius` needs,
    the sweep goes on to it and then stops as if ``span_low`` were ``eps_{k_loc-2} / 64``.

    Raises :class:`ParameterError` for invalid parameters, and when ``L == 0``
    (callers must take the constant shortcut); :class:`ScheduleTooShallow`
    with ``required_span_low`` 0.0 when a needed scale underflows binary64.
    """
    for name, v in (("L", L), ("epsilon", epsilon), ("anchor", anchor),
                    ("span_low", span_low), ("span_high", span_high)):
        if not (is_real(v) and math.isfinite(as_float(v))):
            raise ParameterError(f"{name} must be a finite real, got {shown(v)}")
    if locality is not None:
        r_bar, xi = positive_real("r_bar", locality[0]), positive_real("xi", locality[1])
    # Python floats from here on: a numpy float32 would round the arithmetic below.
    L, epsilon, anchor = float(L), float(epsilon), float(anchor)
    span_low, span_high = float(span_low), float(span_high)
    if L < 0:
        raise ParameterError("L must be nonnegative")
    if L == 0:
        raise ParameterError("L = 0: use the constant/McShane shortcut")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if anchor <= 0:
        raise ParameterError("anchor must be positive")
    if not 0 < span_low < span_high:
        raise ParameterError("need 0 < span_low < span_high")

    eps_eff = min(epsilon, L)
    r_star = min(eps_eff / (3.0 * (L + eps_eff)), 1.0 / 6.0)
    if not r_star >= sys.float_info.min:      # zero or subnormal
        raise ParameterError("ratio r_star = eps / (3 (L + eps)) underflows binary64")

    # Upward extent: indices above 0 keep the constant ratio r_star.
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
    k_loc, past_stop = None, False      # past_stop: below the span_low stop, above eps_{k_loc-2}
    while True:
        cur = eps_desc[-1]
        if (locality is not None and k_loc is None and cur < r_bar
                and 3.0 * L * math.ldexp(r_star, min(k - 2, 0)) < xi):
            k_loc = k - 3
        if past_stop and k_loc == k + 2:    # from here, stop as if span_low were cur / 64
            span_low, low_idx, past_stop = cur / 64.0, None, False
        if low_idx is None and cur <= span_low:
            low_idx = k
        if (low_idx is not None and k <= low_idx - EXTRA_DEPTH
                and cur * (L + eps_eff) <= tail_cap):
            if locality is None or (k_loc is not None and k <= k_loc - 2):
                break
            past_stop = True
        r_k = math.ldexp(r_star, min(k, 0))
        nxt = r_k * cur
        if nxt < _UNDERFLOW or r_k < _UNDERFLOW:
            raise ScheduleTooShallow(_UNREACHABLE if past_stop else SPAN_UNDERFLOW,
                                     required_span_low=0.0)
        ratios_desc.append(r_k)
        eps_desc.append(nxt)
        k -= 1
        if k_max - k > _MAX_STEPS:
            raise ParameterError("schedule generation did not terminate")

    k_min = k
    eps = np.array(eps_desc[::-1], dtype=float)
    ratio = np.array(ratios_desc[::-1], dtype=float)
    return ScaleSchedule(k_min=k_min, k_max=k_max, eps=eps,
                         ratio=ratio, r_star=r_star, L_eff=L, eps_eff=eps_eff,
                         anchor=anchor)


def locality_radius(schedule: ScaleSchedule, r_bar: float, xi: float,
                    L: float) -> tuple[int, float]:
    """Largest stored k with ``eps_{k+3} < r_bar`` and ``3 L eps_k/eps_{k+1} < xi``.

    Returns ``(k, eps_{k-2})``: the radius at which the extension's local
    constant is bounded by the subset's constant at ``r_bar`` plus ``xi``.
    Raises :class:`ScheduleTooShallow` when the stored scales run out first: a
    schedule built with ``locality=(r_bar, xi)`` holds the answer.
    """
    r_bar, xi = positive_real("r_bar", r_bar), positive_real("xi", xi)
    if not (L >= 0 and math.isfinite(as_float(L))):
        raise ParameterError("L must be a nonnegative finite real")
    L = float(L)
    for k in range(schedule.k_max - 3, schedule.k_min + 1, -1):
        if (schedule.eps_at(k + 3) < r_bar
                and 3.0 * L * math.ldexp(schedule.r_star, min(k + 1, 0)) < xi):
            return k, schedule.eps_at(k - 2)
    raise ScheduleTooShallow("extend schedule: locality conditions hold at no stored scale; "
                             "build it with locality=(r_bar, xi)")
