"""Shared instance builders and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from lipext import ProfileBank, ball_lips, instance_from_arrays, verification
from lipext.cli import grid_instance

__all__ = ["grid_instance"]


def random_instance(seed, n_max=200, c_max=50, dim_max=5):
    """Deterministic random Euclidean cloud with values on a random subset."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, n_max + 1))
    dim = int(rng.integers(1, dim_max + 1))
    c_size = int(rng.integers(2, min(c_max, n) + 1))
    coords = rng.uniform(0.0, 1.0, (n, dim))
    subset = rng.choice(n, size=c_size, replace=False)
    kind = seed % 3
    if kind == 0:
        values = coords[subset, 0] * rng.uniform(0.5, 3.0)
    elif kind == 1:
        values = np.sin(4.0 * coords[subset, 0]) + coords[subset, -1] ** 2
    else:
        values = rng.normal(0.0, 1.0, c_size)
    return instance_from_arrays(coords=coords, subset=subset, values=values)


def scales(schedule):
    """{k: eps_k} for k in [k_min, k_max + 1]: the stored scales and the one the
    generation law puts above them, ``eps_{k_max} / r_star`` (``k_max >= 0``)."""
    eps = np.append(schedule.eps, schedule.eps[-1] / schedule.r_star)
    return dict(zip(range(schedule.k_min, schedule.k_max + 2), eps.tolist()))


def slope_map(instance, x, schedule):
    """{k: S_k(x)} for k in [k_min, k_max + 1]: the constant of g on the subset
    points in the open eps_k-ball at ``x``, from one ``ball_lips`` row."""
    eps = scales(schedule)
    row = ball_lips(instance, instance.subset, instance.values, [x], list(eps.values()))[0]
    return dict(zip(eps, row.tolist()))


def bank_rows(bank, pos):
    """The sub-bank of the given row positions, in that order."""
    return ProfileBank(bank.anchors[pos], bank.breakpoints, bank.slopes[pos],
                       bank.cumulative[pos])


def eval_pen(bank, t):
    """The one row of ``bank`` at the distance ``t``, by ``ProfileBank.pen``."""
    assert len(bank.anchors) == 1
    return float(bank.pen(np.array([[t]]))[0, 0])


def hand_bank(anchors, breakpoints, slopes, jumps=0.0):
    """A bank with the given slopes over the given breakpoints.  ``cumulative``
    holds the prefix sums of ``build_profiles`` (so each row is continuous,
    bitwise) plus ``jumps`` added at every breakpoint."""
    bp = np.asarray(breakpoints, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    cumulative = np.zeros_like(slopes)
    cumulative[:, 1:] = np.cumsum(slopes[:, :-1] * np.diff(bp, prepend=0.0) + jumps, axis=1)
    return ProfileBank(np.asarray(anchors, dtype=np.intp), bp, slopes, cumulative)


@contextlib.contextmanager
def corrupted_extension():
    """Within the block, ``run_suite`` (so also ``lipext verify``) checks its
    extension with ``0.5 * check_scale() + 1`` added to the first value: the
    check battery's failure path, end to end."""
    extend = verification.extend

    def corrupt(instance, *args, **kwargs):
        field = extend(instance, *args, **kwargs)
        values = field.values.copy()
        values[0] += 0.5 * instance.check_scale() + 1.0
        return replace(field, values=values)

    verification.extend = corrupt
    try:
        yield
    finally:
        verification.extend = extend


def random_masses(instance, seed):
    rng = np.random.default_rng(seed + 10_000)
    masses = np.zeros(instance.n)
    masses[instance.subset] = rng.uniform(0.1, 2.0, len(instance.subset))
    return masses


# --- independent oracles -----------------------------------------------------


def dense(instance):
    """The full n x n distance matrix, from ``distances``: the tests' dense oracle."""
    return instance.distances(np.arange(instance.n), np.arange(instance.n))


def oracle_lip(instance, values, members):
    """Brute-force double loop over distinct pairs."""
    members = list(members)
    dd = dense(instance)
    best = 0.0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            d = float(dd[members[a], members[b]])
            best = max(best, abs(values[a] - values[b]) / d)
    return best


def oracle_pen(bank, row, t):
    """Integral-style evaluation of one bank row: sum slope * overlap over every region."""
    edges = [0.0, *bank.breakpoints, np.inf]
    val = 0.0
    for j, slope in enumerate(bank.slopes[row]):
        val += slope * max(0.0, min(t, edges[j + 1]) - edges[j])
    return val


def family_rows(instance, bank, members):
    """The materialized family: row ``i`` is ``g(anchors[i]) + pen_i(d(anchors[i], members))``."""
    return (instance.g_at(bank.anchors)[:, None]
            + bank.pen(instance.distances(bank.anchors, members)))


def oracle_extend(instance, bank, y):
    """min over anchors of g(x) + pen_x(d(x, y)), via the integral oracle."""
    dd, best = dense(instance), np.inf
    for pos, x in enumerate(instance.subset):
        t = float(dd[x, y])
        best = min(best, instance.values[pos] + oracle_pen(bank, pos, t))
    return best


def oracle_mcshane_upper(instance, l_prime, y):
    dd = dense(instance)
    return min(instance.values[pos] + l_prime * float(dd[x, y])
               for pos, x in enumerate(instance.subset))


def oracle_mcshane_lower(instance, l_prime, y):
    dd = dense(instance)
    return max(instance.values[pos] - l_prime * float(dd[x, y])
               for pos, x in enumerate(instance.subset))


@pytest.fixture
def line3():
    """Three collinear points 0, 0.5, 1 with data on the outer pair."""
    return instance_from_arrays(coords=[[0.0], [0.5], [1.0]],
                                subset=[0, 2], values=[0.0, 1.0])
