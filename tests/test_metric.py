import json
import threading
import time
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipext import (InstanceValidationError, ParameterError,
                    instance_from_arrays, lip_constant, lipa_profile, run_suite,
                    validate_instance)
from lipext import metric
from lipext.extension import evaluation_diameters
from lipext.metric import (TRIANGLE_RTOL, _check_radii, _euclidean_matrix,
                           _triangle_violators)

from conftest import count_starts, dense, fake_cpus, grid_instance, oracle_lip, random_instance


def _matrix_raw(d, subset=(0, 2), values=(0.0, 2.0), **extra):
    raw = {"points": {"type": "matrix", "d": d},
           "subset": list(subset), "values": list(values)}
    raw.update(extra)
    return raw


# --- validate_instance -------------------------------------------------------


def test_validate_three_point_matrix():
    inst = validate_instance(_matrix_raw([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert inst.lipschitz_L == 1.0  # |2 - 0| / 2
    assert inst.lipschitz_computed == 1.0


@pytest.mark.parametrize("sign", [1, -1])
def test_integers_beyond_float_range_are_not_finite(sign):
    # Read as inf of their sign, so each field's finiteness check names them.
    huge = sign * 10 ** 400
    line = dict(coords=[[0.0], [0.5], [1.0]], subset=[0, 2], values=[0.0, 1.0])
    for edit, field, reason in (
            ({"lipschitz": huge}, "lipschitz", "lipschitz constant must be a finite"),
            ({"coords": [[0.0], [huge], [1.0]]}, "points", "non-finite coordinate"),
            ({"values": [0.0, huge]}, "values", "non-finite value"),
            ({"coords": None, "dmatrix": [[0, huge], [huge, 0]], "subset": [0, 1]},
             "points", "non-finite distance")):
        with pytest.raises(InstanceValidationError) as exc:
            instance_from_arrays(**dict(line, **edit))
        assert exc.value.field == field and exc.value.reason.startswith(reason)


def test_strings_and_bools_are_not_numbers():
    # numpy reads "0" and True as numbers; each field names the first such entry,
    # also in numpy arrays and in rows of numpy scalars.
    line = dict(coords=[[0.0], [0.5], [1.0]], subset=[0, 2], values=[0.0, 1.0])
    for edit, field, reason, position in (
            ({"lipschitz": np.True_}, "lipschitz", "lipschitz constant must be a finite", None),
            ({"coords": [np.array([0.0]), ["0.5"], [1.0]]}, "points", "non-numeric coordinate",
             [1, 0]),
            ({"values": np.array([False, True])}, "values", "non-numeric value", 0),
            ({"values": [np.float64(0.0), np.bool_(True)]}, "values", "non-numeric value", 1),
            ({"coords": None, "dmatrix": np.array([[0, 1], ["1", 0]], dtype=object),
              "subset": [0, 1]}, "points", "non-numeric distance", [1, 0])):
        with pytest.raises(InstanceValidationError) as exc:
            instance_from_arrays(**dict(line, **edit))
        assert exc.value.field == field and exc.value.reason.startswith(reason)
        assert exc.value.witness.get("position") == position
    inst = instance_from_arrays(coords=[(np.float64(0.0),), [np.int64(1)]], subset=(0, 1),
                                values=np.array([0.0, np.float32(2.0)]), lipschitz=np.int64(3))
    assert inst.lipschitz_L == 3.0 and inst.diameter() == 1.0


def test_triangle_violation_reports_triple():
    with pytest.raises(InstanceValidationError) as exc:
        validate_instance(_matrix_raw([[0, 1, 5], [1, 0, 1], [5, 1, 0]]))
    err = exc.value
    assert "triangle" in err.reason
    assert {err.witness["i"], err.witness["j"], err.witness["k"]} == {0, 1, 2}


R = 64      # tile side of the triangle certificate: _BLOCK is R * R * n


def _triangle_oracle(d):
    """The first triangle violation of a per-pivot, row-major scan, or None.

    Pivot ``j`` ascending, then ``(i, k)`` in row-major order: the witness
    ``validate_instance`` reports.
    """
    tol = TRIANGLE_RTOL * float(d.max())
    for j in range(len(d)):
        bad = d > (d[:, j, None] + d[None, j, :]) + tol
        if bad.any():
            i, k = (int(x) for x in np.argwhere(bad)[0])
            return {"i": i, "j": j, "k": k, "d_ik": float(d[i, k]),
                    "bound": float(d[i, j] + d[j, k])}
    return None


def _plane_metric(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 2))
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _stretch(d, i, k):
    """Lengthen d[i, k] just past its shortest two-step path; return the pivot.

    Only the pair (i, k) then violates, and only at pivots whose path is
    within 1e-6 of the shortest one.
    """
    paths = d[i] + d[:, k]
    paths[[i, k]] = np.inf
    j = int(np.argmin(paths))
    d[i, k] = d[k, i] = paths[j] + 1e-6
    return j


def _triangle_witness(d):
    tol = TRIANGLE_RTOL * float(d.max())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_BLOCK", R * R * len(d))
        try:
            instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
        except InstanceValidationError as exc:
            assert exc.reason == "triangle inequality violated"
            rows = _triangle_violators(d, tol).tolist()
            assert exc.witness["i"] in rows and exc.witness["k"] in rows
            return exc.witness
        assert len(_triangle_violators(d, tol)) == 0
    return None


# (n, pairs to stretch): a pair far apart (rows in different strips of tiles
# once n > R), a pair near the diagonal (inside the last tile when n = 2R+5),
# and both at once with different pivots.
TRIANGLE_CASES = [(n, ()) for n in (1, 2, R - 1, R, R + 1, 2 * R + 5)] + [
    (n, pairs) for n in (R - 1, R, R + 1, 2 * R + 5)
    for pairs in (((n - 2, 1),), ((n - 1, n - 3),), ((n - 2, 1), (n - 1, n - 3)))]


@pytest.mark.parametrize("n,pairs", TRIANGLE_CASES)
def test_triangle_witness_matches_per_pivot_oracle(n, pairs):
    d = _plane_metric(n, seed=n)
    pivots = [_stretch(d, i, k) for i, k in pairs]
    expected = _triangle_oracle(d)
    assert _triangle_witness(d) == expected
    if not pairs:
        assert expected is None
        return
    # The witness is the planted pair of smallest pivot, upper triangle first.
    first = int(np.argmin(pivots))
    assert expected["j"] == pivots[first] > 0
    assert (expected["i"], expected["k"]) == tuple(sorted(pairs[first]))
    if len(pairs) == 2:
        assert pivots[0] != pivots[1]


def test_triangle_witness_pivot_order_beats_row_order():
    # Pair (1, n-2) sits in the first strip of tiles, pair (n-3, n-1) in the last;
    # the witness follows the smaller pivot, wherever its rows are.
    n = 2 * R + 5
    for seed in range(20):
        d = _plane_metric(n, seed)
        far, last = _stretch(d, n - 2, 1), _stretch(d, n - 1, n - 3)
        if last < far:
            break
    assert last < far
    w = _triangle_witness(d)
    assert (w["i"], w["j"], w["k"]) == (n - 3, last, n - 1)
    assert w == _triangle_oracle(d)


@pytest.mark.parametrize("pivot", [0, 2 * R + 4])
def test_triangle_violation_at_first_and_last_pivot(pivot):
    n = 2 * R + 5
    d = _plane_metric(n, seed=1)
    j = _stretch(d, 5, n - 5)
    perm = np.arange(n)
    perm[[j, pivot]] = perm[[pivot, j]]
    d = d[np.ix_(perm, perm)]
    w = _triangle_witness(d)
    assert w == _triangle_oracle(d) and w["j"] == pivot


def test_triangle_witness_late_pivot_reads_only_violating_rows(monkeypatch):
    # Both planted pairs violate only at pivots late in the scan, in different
    # tiles; the certificate names exactly their rows, and the witness
    # scan over those rows finds the per-pivot oracle's witness.
    n = 4 * R + 7
    monkeypatch.setattr(metric, "_BLOCK", R * R * n)
    d = _plane_metric(n, seed=3)
    pairs = ((2, n - 9), (R + 1, 3 * R))
    late = (n - 3, n - 6)
    for (i, k), target in zip(pairs, late):
        j = _stretch(d, i, k)
        perm = np.arange(n)
        perm[[j, target]] = perm[[target, j]]
        d = d[np.ix_(perm, perm)]
    w = _triangle_witness(d)
    assert w == _triangle_oracle(d)
    assert (w["i"], w["j"], w["k"]) == (R + 1, n - 6, 3 * R)
    rows = _triangle_violators(d, TRIANGLE_RTOL * float(d.max()))
    assert rows.tolist() == sorted({i for pair in pairs for i in pair})


def test_triangle_tolerance_edge():
    # Points 0..3 near a line; d[0, 3] = 3 is the maximum, so tol = 3e-9 and
    # d[0, 2] may reach fl(fl(d01 + d12) + tol) and no further.
    tol = TRIANGLE_RTOL * 3.0
    edge = (1.0 + 1.0) + tol
    d = np.array([[0.0, 1.0, edge, 3.0],
                  [1.0, 0.0, 1.0, 2.0],
                  [edge, 1.0, 0.0, 1.0],
                  [3.0, 2.0, 1.0, 0.0]])
    assert _triangle_witness(d) is None and _triangle_oracle(d) is None
    # A real violation at pivot 2 makes the per-pivot scan run; it, too, must
    # pass the edge triple at pivot 1.
    stretched = d.copy()
    stretched[1, 3] = stretched[3, 1] = 2.0 + 1e-6
    expected = {"i": 1, "j": 2, "k": 3, "d_ik": 2.0 + 1e-6, "bound": 2.0}
    assert _triangle_oracle(stretched) == expected
    assert _triangle_witness(stretched) == expected
    above = np.nextafter(edge, np.inf)
    d[0, 2] = d[2, 0] = above
    expected = {"i": 0, "j": 1, "k": 2, "d_ik": above, "bound": 2.0}
    assert _triangle_oracle(d) == expected
    assert _triangle_witness(d) == expected


def _violating_rows(d, tol):
    """Every ``i`` with some ``(i, k)`` violating at some pivot: the brute force."""
    rows = set()
    for j in range(len(d)):
        bad = d > (d[:, j, None] + d[None, j, :]) + tol
        rows.update(np.flatnonzero(bad.any(axis=1)).tolist())
    return sorted(rows)


def _ring_metric(n, seed):
    """Shortest paths on a ring with edge weights in multiples of 1/8: exact sums,
    and many tied distances and exactly tight triangles."""
    s = np.concatenate([[0.0], np.cumsum(np.random.default_rng(seed).integers(1, 17, n) / 8.0)])
    gap = np.abs(s[:n, None] - s[None, :n])
    return np.minimum(gap, s[n] - gap)


def _graph_metric(n, seed):
    """Shortest paths of a ring plus chords, edge weights in multiples of 1/8."""
    rng = np.random.default_rng(seed)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j in [(i, (i + 1) % n) for i in range(n)] + rng.integers(0, n, (n, 2)).tolist():
        if i != j:
            d[i, j] = d[j, i] = min(d[i, j], rng.integers(1, 17) / 8.0)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def _plant(d, i, k, above):
    """Set ``d[i, k]`` to ``fl(fl(d[i, j] + d[j, k]) + tol)`` at its shortest two-step
    path (the largest value that passes), or to the float above it."""
    tol = TRIANGLE_RTOL * float(d.max())
    paths = d[i] + d[:, k]
    paths[[i, k]] = np.inf
    edge = paths.min() + tol
    d[i, k] = d[k, i] = np.nextafter(edge, np.inf) if above else edge
    assert d[i, k] < d.max()        # tol is unchanged


def _tiling_cases():
    for n in (37, 133):
        for name, metric_of in (("plane", _plane_metric), ("ring", _ring_metric),
                                ("graph", _graph_metric)):
            d = metric_of(n, n)
            yield f"{name}{n}", d, []
            for above in (False, True):
                # a far pair, a pair in the last diagonal tile, and the lower half
                # of a diagonal tile at side 8 (rows 17 and 20 share the tile 16..23)
                planted = d.copy()
                for i, k in ((n - 2, 1), (n - 1, n - 3), (20, 17)):
                    _plant(planted, i, k, above)
                rows = sorted({n - 2, 1, n - 1, n - 3, 20, 17}) if above else []
                yield f"{name}{n}-{'above' if above else 'edge'}", planted, rows


TILING_CASES = list(_tiling_cases())


@pytest.mark.parametrize("block", ["1", "n", "7n", "64n", "default"])
@pytest.mark.parametrize("d,rows", [c[1:] for c in TILING_CASES], ids=[c[0] for c in TILING_CASES])
def test_triangle_certificate_does_not_depend_on_the_tiling(monkeypatch, block, d, rows):
    # Tiles of side 1, 1, 2, 8 and isqrt(2^16 // n) (42 -> all 37 rows, 22 at
    # n = 133): ragged last tiles in both dimensions, and diagonal tiles whose
    # lower half repeats pairs of the upper one.
    n = len(d)
    sizes = {"1": 1, "n": n, "7n": 7 * n, "64n": 64 * n, "default": metric._BLOCK}
    monkeypatch.setattr(metric, "_BLOCK", sizes[block])
    tol = TRIANGLE_RTOL * float(d.max())
    got = _triangle_violators(d, tol).tolist()
    assert got == _violating_rows(d, tol) == rows


def _triangle_scan_peak(monkeypatch, workers):
    """``(peak, n, side)``: the traced peak of a clean scan of an n = 700 ring under
    ``workers`` faked CPUs, and the scan's tile side."""
    n = 700
    d = _ring_metric(n, seed=7)
    fake_cpus(monkeypatch, workers)
    tracemalloc.start()
    try:
        assert len(_triangle_violators(d, TRIANGLE_RTOL * float(d.max()))) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, n, isqrt(metric._BLOCK // n)


def test_triangle_scan_memory_is_one_block(monkeypatch):
    # One CPU, so the caller alone: one tile of at most _BLOCK entries, plus O(n)
    # at the fixed budget (the side x n strip, its bool comparison and the flags)
    # and the buffers numpy's broadcasting add allocates (2 x bufsize entries at
    # most).  The row-block fold held two buffers of max(_BLOCK, n) entries.
    peak, n, side = _triangle_scan_peak(monkeypatch, 1)
    assert peak <= 8 * metric._BLOCK + 9 * side * n + 2 * n + 16 * np.getbufsize() + 4096


@pytest.mark.parametrize("workers", [2, 4])
def test_triangle_scan_memory_is_one_block_per_worker(monkeypatch, workers):
    # w workers hold w times one worker's tile, strip, flags and numpy buffers.
    peak, n, side = _triangle_scan_peak(monkeypatch, workers)
    assert peak <= (workers * (8 * metric._BLOCK + 9 * side * n + 2 * n + 16 * np.getbufsize())
                    + 4096)


STRIP = 4   # tile side at a lowered _BLOCK: the 60-point ring below has 15 strips


def _many_strips(monkeypatch, n=60):
    monkeypatch.setattr(metric, "_BLOCK", STRIP * STRIP * n)
    monkeypatch.setattr(metric, "_FLOOR", 1)    # the scan states 27,450 entries: over the floor
    return _ring_metric(n, seed=n)


def test_triangle_certificate_does_not_depend_on_the_worker_count(monkeypatch):
    # Violations in the first strip (rows 0..3), a middle one (28..31) and the last
    # one (56..59), and the far pair (5, 50): row 50 is flagged only by the
    # columns of strip 4..7, as strip 48..51 reads no column below 48.
    d = _many_strips(monkeypatch)
    pairs = ((1, 2), (29, 30), (57, 59), (5, 50))
    for i, k in pairs:
        _plant(d, i, k, above=True)
    tol = TRIANGLE_RTOL * float(d.max())
    expected = _violating_rows(d, tol)
    assert expected == sorted({i for pair in pairs for i in pair})
    witnesses = []
    for cpus in (1, 2, 4):
        fake_cpus(monkeypatch, cpus)
        assert _triangle_violators(d, tol).tolist() == expected
        with pytest.raises(InstanceValidationError) as exc:
            instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
        witnesses.append(exc.value.witness)
    assert witnesses == [_triangle_oracle(d)] * 3


@pytest.mark.parametrize("cpus,n,strips,threads", [
    (64, 60, 15, 3),    # at most 4 workers, whatever the affinity mask holds
    (64, 12, 3, 2),     # no more workers than strips
    (64, 30, 1, 0),     # one strip: the caller alone
    (1, 60, 15, 0),     # one CPU: the caller alone
])
def test_triangle_scan_thread_count(monkeypatch, cpus, n, strips, threads):
    if strips > 1:
        monkeypatch.setattr(metric, "_BLOCK", STRIP * STRIP * n)
        monkeypatch.setattr(metric, "_FLOOR", 1)    # n = 12 states 234 entries: over the floor
    d = _ring_metric(n, seed=n)
    assert -(-n // min(n, isqrt(metric._BLOCK // n))) == strips
    fake_cpus(monkeypatch, cpus)
    started = count_starts(monkeypatch)
    assert len(_triangle_violators(d, TRIANGLE_RTOL * float(d.max()))) == 0
    assert len(started) == threads


@pytest.mark.parametrize("cpus,where", [(1, "middle strip"), (2, "middle strip"),
                                        (4, "middle strip"), (2, "thread"), (4, "thread")])
def test_triangle_worker_failure_fails_the_certificate(monkeypatch, cpus, where):
    # An unscanned strip must never read as "no violation": a worker's exception
    # (on the strip of rows 28..31, or on every strip a thread takes) reaches the
    # caller once every thread has joined.
    d = _many_strips(monkeypatch)
    instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
    fake_cpus(monkeypatch, cpus)
    scan, started = metric._triangle_strip, count_starts(monkeypatch)

    def failing(d, tol, a, *rest):
        in_thread = threading.current_thread() in started
        if (a == 28) if where == "middle strip" else in_thread:
            raise MemoryError("tile")
        if not in_thread:
            time.sleep(0.002)   # the caller leaves the threads strips to take
        scan(d, tol, a, *rest)
    monkeypatch.setattr(metric, "_triangle_strip", failing)
    with pytest.raises(MemoryError, match="tile"):
        instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
    assert len(started) == min(cpus, 4) - 1
    assert not any(t.is_alive() for t in started)


def test_zero_off_diagonal_witness_is_first_in_row_order():
    d = _plane_metric(5, seed=0)
    d[3, 1] = d[1, 3] = d[4, 2] = d[2, 4] = 0.0
    with pytest.raises(InstanceValidationError) as exc:
        instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
    assert exc.value.reason == "zero off-diagonal distance"
    assert exc.value.witness == {"i": 1, "j": 3}
    with pytest.raises(InstanceValidationError) as exc:
        instance_from_arrays(coords=[[0.0], [1.0], [2.0], [1.0], [0.0]],
                             subset=[0], values=[0.0])
    assert exc.value.reason == "duplicate points (zero distance)"
    assert exc.value.witness == {"i": 0, "j": 4}


def test_user_lipschitz_below_computed_rejected():
    raw = _matrix_raw([[0, 1], [1, 0]], subset=(0, 1), values=(0.0, 1.0),
                      lipschitz=0.5)
    with pytest.raises(InstanceValidationError) as exc:
        validate_instance(raw)
    assert exc.value.field == "lipschitz"
    assert exc.value.witness["computed"] == 1.0


def test_user_lipschitz_at_or_above_computed_accepted():
    raw = _matrix_raw([[0, 1], [1, 0]], subset=(0, 1), values=(0.0, 1.0),
                      lipschitz=1.0)
    assert validate_instance(raw).lipschitz_L == 1.0


@pytest.mark.parametrize("d,reason", [
    ([[0, 1], [2, 0]], "asymmetric"),
    ([[0, -1], [-1, 0]], "negative"),
    ([[1, 1], [1, 0]], "diagonal"),
    ([[0, 0], [0, 0]], "off-diagonal"),
])
def test_matrix_axiom_failures(d, reason):
    with pytest.raises(InstanceValidationError) as exc:
        validate_instance(_matrix_raw(d, subset=(0,), values=(0.0,)))
    assert reason in exc.value.reason


def test_subset_and_values_errors():
    with pytest.raises(InstanceValidationError, match="out of range"):
        instance_from_arrays(coords=[[0.0], [1.0]], subset=[0, 5], values=[0, 1])
    with pytest.raises(InstanceValidationError, match="duplicate subset"):
        instance_from_arrays(coords=[[0.0], [1.0]], subset=[1, 1], values=[0, 1])
    with pytest.raises(InstanceValidationError, match="length"):
        instance_from_arrays(coords=[[0.0], [1.0]], subset=[0, 1], values=[0.0])
    with pytest.raises(InstanceValidationError, match="non-finite"):
        instance_from_arrays(coords=[[0.0], [1.0]], subset=[0, 1],
                             values=[0.0, np.nan])


def test_subset_entries_must_be_integers():
    d = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    for subset in ([0.9, 2.2], [0, 2.0], [True, 2], [0, "2"]):
        with pytest.raises(InstanceValidationError, match="integers") as exc:
            validate_instance(_matrix_raw(d, subset=subset))
        assert exc.value.field == "subset"
    with pytest.raises(InstanceValidationError) as exc:
        instance_from_arrays(dmatrix=d, subset=np.array([False, True]),
                             values=[0.0, 1.0])
    assert exc.value.field == "subset"
    inst = instance_from_arrays(dmatrix=d, subset=np.array([0, 2], dtype=np.int32),
                                values=[0.0, 1.0])
    assert inst.subset.tolist() == [0, 2]


def test_missing_fields_named():
    with pytest.raises(InstanceValidationError) as exc:
        validate_instance({"points": {"type": "matrix", "d": [[0]]}, "subset": [0]})
    assert exc.value.field == "values"
    with pytest.raises(InstanceValidationError) as exc:
        validate_instance({"subset": [0], "values": [0.0]})
    assert exc.value.field == "points"


def test_duplicate_euclidean_points_rejected():
    with pytest.raises(InstanceValidationError, match="duplicate points"):
        instance_from_arrays(coords=[[0.0, 0.0], [0.0, 0.0]], subset=[0],
                             values=[1.0])


@pytest.mark.parametrize("geometry", ["coords", "dmatrix"])
def test_a_validated_instance_is_never_written(geometry):
    # Validation builds every array the instance holds, read-only, and no
    # later operation fills or replaces a field.
    inst = random_instance(2)
    if geometry == "dmatrix":
        inst = instance_from_arrays(dmatrix=dense(inst), subset=inst.subset, values=inst.values)
    before = dict(vars(inst))
    assert all(not v.flags.writeable for v in before.values() if isinstance(v, np.ndarray))
    assert run_suite(inst, 0.5).passed
    assert all(vars(inst)[k] is v for k, v in before.items())


# --- Euclidean geometry in blocks ---------------------------------------------


def _one_shot(coords, others=None):
    """The unblocked formula: one (len(coords), len(others), dim) difference array."""
    others = coords if others is None else others
    diff = coords[:, None, :] - others[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


# Both sides of the switch from the coordinate-at-a-time fill to np.sum at 8,
# and the edges of numpy's pairwise summation above it: eight lanes up to 128
# (with and without a remainder), halves split at multiples of 8 above.
DIMS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 128, 129, 130, 257)
B = 5


@pytest.mark.parametrize("dim", (0,) + DIMS)
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 5])
def test_euclidean_blocks_match_one_shot(monkeypatch, n, dim):
    # Blocks of B rows: full blocks, a short last block and a single block.
    coords = np.random.default_rng(n * dim).normal(0.0, 3.0, (n, dim))
    # Below 8 coordinates a block row is n entries, from 8 on n * dim.
    monkeypatch.setattr(metric, "_BLOCK", B * n * (1 if dim < 8 else dim))
    assert np.array_equal(_euclidean_matrix(coords, coords), _one_shot(coords))


@pytest.mark.parametrize("dim", DIMS)
def test_distances_match_one_shot(dim):
    # At the module's own block size: 300 points span two blocks below 8
    # coordinates and more from 8 on.
    rng = np.random.default_rng(dim)
    coords = rng.uniform(-1.0, 1.0, (300, dim))
    inst = instance_from_arrays(coords=coords, subset=[0, 1], values=[0.0, 1.0])
    # The reference in 30-row slices keeps its difference arrays small; each
    # entry is still one np.sum over the dim axis.
    full = np.vstack([_one_shot(coords[a:a + 30], coords) for a in range(0, 300, 30)])
    everything = np.arange(inst.n)
    rows = rng.permutation(inst.n)[:37]
    cols = rng.permutation(inst.n)[:50]
    for r, c in ((everything, everything), (rows, cols), (rows, everything), (everything, cols),
                 (rng.permutation(inst.n), everything), (everything[::-1], everything)):
        assert np.array_equal(inst.distances(r, c), full[np.ix_(r, c)])


@pytest.mark.parametrize("dim", [1, 3, 7, 8, 16, 17])
@pytest.mark.parametrize("block", [1, 1 << 16])
def test_distances_from_coordinates_match_the_gathered_matrix(monkeypatch, dim, block):
    # distances() computes every block from the coordinates: the bits of the
    # one-shot matrix, with one-row blocks (block 1) as with the module's own,
    # for unsorted, repeated and single indices.
    rng = np.random.default_rng(100 + dim)
    n = 70
    monkeypatch.setattr(metric, "_BLOCK", block)
    inst = instance_from_arrays(coords=rng.normal(0.0, 2.0, (n, dim)), subset=[0, 1],
                                values=[0.0, 1.0])
    lists = [rng.permutation(n), rng.integers(0, n, 40), [5], [9, 2, 9, 9], np.arange(n)]
    full = _one_shot(inst.coords)
    for r in lists:
        for c in lists:
            got, want = inst.distances(r, c), full[np.ix_(r, c)]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _first_entry(mask):
    """(i, j) of the first True off the diagonal in row-major order."""
    mask = mask & ~np.eye(len(mask), dtype=bool)
    return dict(zip("ij", map(int, np.argwhere(mask)[0])))


@pytest.mark.parametrize("block", [1, 3 * 40, 1 << 16])
def test_streamed_validation_names_the_first_witness(monkeypatch, block):
    # Validation scans the upper triangle a row block at a time (one row, three
    # rows, or everything at once) and names the first pair of the whole matrix
    # in row-major order; a non-finite distance wins over any duplicate.
    monkeypatch.setattr(metric, "_BLOCK", block)
    rng = np.random.default_rng(21)
    coords = rng.uniform(0.0, 1.0, (40, 2))
    coords[[31, 20, 38]] = coords[[5, 12, 12]]     # (5, 31), (12, 20), (12, 38), (20, 38)

    def witness(coords):
        with pytest.raises(InstanceValidationError) as exc:
            instance_from_arrays(coords=coords, subset=[0], values=[0.0])
        return exc.value.reason, exc.value.witness

    with np.errstate(over="ignore"):
        assert witness(coords) == ("duplicate points (zero distance)",
                                   _first_entry(_one_shot(coords) == 0.0))
        assert witness(coords)[1] == {"i": 5, "j": 31}
        for far in ([17, 30], [4, 36], [0, 39], [5, 6]):
            # At +-1e154 the two points overflow against each other only, so
            # the duplicate (5, 31) comes before (17, 30) in row-major order;
            # the overflow is still the error.
            big = coords.copy()
            big[far] = [[1e154, 0.0], [-1e154, 0.0]]
            assert witness(big) == ("non-finite distance",
                                    _first_entry(~np.isfinite(_one_shot(big))))
        big = coords.copy()
        big[17] = [1e200, 0.0]      # overflows against every point
        assert witness(big) == ("non-finite distance", {"i": 0, "j": 17})


def _walked(kind):
    """A 60-point cloud in ``kind`` coordinates, or the golden shortest-path matrix."""
    if kind == "graph":
        return validate_instance(json.loads((Path(__file__).parent / "golden" / "graph.json")
                                            .read_text()))
    coords = np.random.default_rng(200 + kind).normal(0.0, 2.0, (60, kind))
    return instance_from_arrays(coords=coords, subset=[0, 1], values=[0.0, 1.0])


@pytest.mark.parametrize("kind", [1, 3, 7, 8, 16, 17, "graph"])
@pytest.mark.parametrize("block", [1, 50, 1 << 16])
def test_upper_blocks_are_the_distance_blocks(monkeypatch, kind, block):
    # Each block of the walk is the bits of distances() on its rows against the
    # columns from its first row on (read before the next block overwrites a
    # cloud's buffer), its mask is the entries c > r, and the blocks cover the
    # rows 0..m-2 in order: over every point, a permutation and a strict subset,
    # in one-row blocks, blocks of a few rows and the module's own.
    inst = _walked(kind)
    monkeypatch.setattr(metric, "_BLOCK", block)
    rng = np.random.default_rng(7)
    for points in (np.arange(inst.n), rng.permutation(inst.n), rng.permutation(inst.n)[:23]):
        rows = []
        for a, d, upper in metric._upper_blocks(inst, points):
            want = inst.distances(points[a:a + len(d)], points[a:])
            assert d.shape == want.shape and d.tobytes() == want.tobytes()
            r, c = np.indices(d.shape)
            assert np.array_equal(upper, c > r)
            rows.extend(range(a, a + len(d)))
        assert rows == list(range(len(points) - 1))


@pytest.mark.parametrize("kind", [3, "graph"])
def test_upper_blocks_reject_a_bad_point_list(kind):
    # Checked before the first block, with distances()' message: a negative
    # index never wraps around, and a single point is checked too.
    inst = _walked(kind)
    for points in ([0, -1, 2], [-1], [inst.n], np.array([3, -inst.n]), [[0, 1]], [0, 1.5],
                   [True, 2]):
        with pytest.raises(ParameterError) as walked:
            next(metric._upper_blocks(inst, points))
        with pytest.raises(ParameterError) as gathered:
            inst.distances(points, points)
        assert str(walked.value) == str(gathered.value)


def test_validation_forms_few_distances(monkeypatch):
    # Validating the seeded 1000-point cloud forms at most 15% of its n(n-1)/2
    # distances for the extents, plus the |C|^2 of Lip(g, C) over the subset: the
    # sweep meets the near pairs only, and the diameter walks the few points that
    # can reach it.
    n = 1000
    rng = np.random.default_rng(8)
    coords = rng.uniform(0.0, 1.0, (n, 3))
    subset = np.sort(rng.choice(n, size=n // 10, replace=False))
    raw = {"points": {"type": "euclidean", "coords": coords.tolist()},
           "subset": subset.tolist(),
           "values": (np.sin(4.0 * coords[subset, 0]) + coords[subset, 2] ** 2).tolist()}
    formed, block = [], metric._euclidean_block

    def counted(a, b, out, scratch):
        formed.append(out.size)
        return block(a, b, out, scratch)

    monkeypatch.setattr(metric, "_euclidean_block", counted)
    inst = validate_instance(raw)
    assert sum(formed) <= 0.15 * n * (n - 1) / 2 + len(subset) ** 2
    monkeypatch.undo()
    d = dense(inst)
    assert inst.extents == (float(d[d > 0].min()), float(d.max()))


def test_unpruned_cloud_costs_one_walk(monkeypatch):
    # In 16 coordinates the sweep's first row of neighbours already bounds more than
    # a tenth of the pairs, so it stops there and the extents cost the all-pairs
    # walk plus that row, not a sweep through many of the pairs first.
    n = 400
    inst = instance_from_arrays(coords=np.random.default_rng(16).uniform(0.0, 1.0, (n, 16)),
                                subset=[0], values=[0.0])
    formed, block = [], metric._euclidean_block

    def counted(a, b, out, scratch):
        formed.append(out.size)
        return block(a, b, out, scratch)

    monkeypatch.setattr(metric, "_euclidean_block", counted)
    assert metric._extents(inst, np.arange(n)) == inst.extents
    walk = sum((s.stop - s.start) * (n - s.start) for s in metric._row_blocks(n - 1, n))
    assert sum(formed) <= walk + n


def test_slab_cloud_costs_about_two_walks(monkeypatch):
    # 70% of 4000 points lie in an x-slab 1e-4 wide, inside the first round's least
    # distance on x, so the sweep would meet about half the pairs, each at about ten
    # times the cost of a walk pair (two row gathers and a paired-row kernel call).
    # The cap stops it after that round: with sweep entries weighted by ten, the
    # extents cost at most two walks (4.9 under a cap of n(n - 1) / 4).
    n, slab = 4000, 2800
    rng = np.random.default_rng(40)
    coords = rng.uniform(0.0, 1.0, (n, 3))
    coords[:, 0] *= 1.01        # the widest coordinate, which the sweep sorts on
    coords[:slab, 0] = 0.5 + rng.uniform(0.0, 1e-4, slab)
    inst = instance_from_arrays(coords=coords, subset=[0], values=[0.0])
    cost, block = [], metric._euclidean_block

    def counted(a, b, out, scratch):
        cost.append(out.size * (10 if out.ndim == 1 else 1))    # paired rows: the sweep
        return block(a, b, out, scratch)

    monkeypatch.setattr(metric, "_euclidean_block", counted)
    got = metric._extents(inst, np.arange(n))
    walk = sum((s.stop - s.start) * (n - s.start) for s in metric._row_blocks(n - 1, n))
    assert sum(cost) <= 2 * walk
    monkeypatch.setattr(metric, "_pruned", lambda instance, points: None)
    assert got == metric._extents(inst, np.arange(n)) == inst.extents


def _cloud(kind, n, dim, rng):
    """``n`` points in ``dim`` coordinates: uniform, normal, distinct integer lattice
    points (ties), two tight clusters, or a line (where the diameter's ends lie
    exactly ``r_i + R`` apart through the midrange)."""
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, dim))
    if kind == "normal":
        return rng.normal(0.0, 1.0, (n, dim))
    if kind == "lattice":
        side = 2 + int((2 * n) ** (1 / dim))
        cells = rng.choice(side ** dim, size=n, replace=False)
        return np.stack(np.unravel_index(cells, (side,) * dim), axis=1) - side / 2
    if kind == "clusters":
        return rng.normal(0.0, 1e-3, (n, dim)) + 7.0 * (np.arange(n) % 2)[:, None]
    line = np.zeros((n, dim))
    line[:, 0] = rng.normal(0.0, 1.0, n)
    return line


def _dense_extents(inst, points):
    """``_extents`` of ``points`` from the dense matrix: the reason and witness of the
    first non-finite entry, else of the first zero one off the diagonal, in row-major
    order over ``points``, else (min positive or 0, max)."""
    d = dense(inst)[np.ix_(points, points)]
    for reason, bad in (("non-finite distance", ~np.isfinite(d)),
                        ("duplicate points (zero distance)", np.triu(d == 0.0, 1))):
        if bad.any():
            r, c = np.argwhere(bad)[0]
            return reason, {"i": int(points[r]), "j": int(points[c])}
    return float(np.min(d, where=d > 0, initial=np.inf)) if len(d) > 1 else 0.0, float(d.max())


def _pruned_extents(inst, points):
    """``metric._extents``, or the reason and witness of its error on ``points``."""
    try:
        return metric._extents(inst, points)
    except InstanceValidationError as exc:
        assert exc.field == "points"
        return exc.reason, exc.witness


@pytest.mark.parametrize("kind", ["uniform", "normal", "lattice", "clusters", "line"])
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 16, 17])
def test_cloud_extents_match_the_dense_matrix(kind, dim):
    # The sweep's closest pair and the survivors' diameter are the bits of the
    # dense matrix, and a zero or non-finite distance gets the dense matrix's
    # first witness in row-major order: over every point, a permutation, a
    # partial list and evaluation_diameters, from subnormal squares (1e-160) to
    # overflowing ones (1e160), with a repeated point and with 1, 2 and 3 points.
    rng = np.random.default_rng([dim, len(kind)])
    for scale in (1e-160, 1.0, 1e150, 1e160):
        for n in (1, 2, 3, 40, 150):
            coords = scale * _cloud(kind, n, dim, rng)
            copied = coords.copy()
            copied[rng.integers(n)] = copied[rng.integers(n)]
            for c in (coords, copied):
                inst = metric.MetricInstance(subset=np.array([0]), values=np.array([0.0]),
                                             lipschitz_L=0.0, lipschitz_computed=0.0, coords=c)
                perm = rng.permutation(n)
                for points in (perm[:max(1, n // 3)], perm, np.arange(n)):
                    with np.errstate(over="ignore"):
                        want = _dense_extents(inst, points)
                    assert _pruned_extents(inst, points) == want
                if not isinstance(want[0], str):    # every point valid
                    inst = instance_from_arrays(coords=c, subset=[0], values=[0.0])
                    queries = perm[:max(1, n // 3)]
                    pts = np.unique(np.append(queries, 0))
                    assert evaluation_diameters(inst, queries) == _dense_extents(inst, pts)


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1.0, 1e150, 1e160])
@pytest.mark.parametrize("dim", [3, 17, 257])
def test_euclidean_matrix_axioms_hold_exactly(scale, dim):
    # Validation skips the diagonal, symmetry and sign checks on Euclidean
    # clouds because these hold bit for bit, also at 1e-160 and 1e160, where
    # squares go subnormal or overflow.
    coords = scale * np.random.default_rng(dim).normal(0.0, 1.0, (40, dim))
    d = _euclidean_matrix(coords, coords)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0) and not np.any(np.signbit(d))


@pytest.mark.parametrize("dim", [3, 17, 257, 1024])
def test_euclidean_temporaries_fit_the_block(dim):
    n = 400
    coords = np.random.default_rng(dim).uniform(0.0, 1.0, (n, dim))
    tracemalloc.start()
    try:
        _euclidean_matrix(coords, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output and one scratch of at most max(_BLOCK, n * dim) entries: the
    # slab below 8 coordinates or the difference block from 8 on (one row of
    # n * dim entries at 257 and 1024), plus the buffers numpy's broadcasting
    # subtract allocates (2 x bufsize entries at most); nothing grows with n * n * dim.
    assert peak <= (8 * (n * n + n * dim + metric._BLOCK)
                    + 16 * np.getbufsize() + (1 << 16))


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_row_blocks_cover_the_rows_in_order(monkeypatch, block):
    # Full blocks of max(1, _BLOCK // width) rows, a width of 0 read as 1, and a
    # shorter last block.
    monkeypatch.setattr(metric, "_BLOCK", block)
    for count in (0, 1, 2, 5, 9, 100):
        for width in (0, 1, 3, 7, 8, 65, 1 << 16, 1 << 20):
            rows = max(1, block // max(1, width))
            sizes = [s.stop - s.start for s in metric._row_blocks(count, width)]
            assert [i for s in metric._row_blocks(count, width)
                    for i in range(count)[s]] == list(range(count))
            assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < min(sizes, default=1)
            assert max(sizes, default=0) <= rows


# --- lip_constant ------------------------------------------------------------


def test_lip_constant_basics(line3):
    assert lip_constant(line3, np.array([0.0, 1.0]), [0, 2]) == 1.0
    assert lip_constant(line3, np.array([5.0, 5.0, 5.0]), [0, 1, 2]) == 0.0
    assert lip_constant(line3, np.array([7.0]), [1]) == 0.0
    # brute force over the 3 pairs: max(2, 1, 0) = 2
    assert lip_constant(line3, np.array([0.0, 1.0, 1.0]), [0, 1, 2]) == 2.0


def test_lip_constant_duplicate_members_rejected(line3):
    with pytest.raises(ParameterError):
        lip_constant(line3, np.array([0.0, 1.0]), [1, 1])


def test_lip_constant_rejects_bad_indices_and_values(line3):
    for members in ([-1, 0], [0, 3]):          # -1 would wrap to the last point
        with pytest.raises(ParameterError, match="members"):
            lip_constant(line3, np.array([0.0, 1.0]), members)
    with pytest.raises(ParameterError, match="finite"):
        lip_constant(line3, np.array([0.0, np.nan]), [0, 1])


def test_lip_constant_relabeling_invariance():
    inst = random_instance(7, n_max=30)
    rng = np.random.default_rng(4)
    members = rng.choice(inst.n, size=10, replace=False)
    vals = rng.normal(size=10)
    perm = rng.permutation(10)
    assert lip_constant(inst, vals[perm], members[perm]) == \
        lip_constant(inst, vals, members)


def test_lip_constant_matches_oracle():
    inst = random_instance(3, n_max=40)
    rng = np.random.default_rng(0)
    members = rng.choice(inst.n, size=12, replace=False)
    vals = rng.normal(size=12)
    got = lip_constant(inst, vals, members)
    assert got == pytest.approx(oracle_lip(inst, vals, members), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(-50, 50))
def test_lip_constant_shift_invariance_and_monotone(seed, shift):
    inst = random_instance(seed % 17, n_max=30)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, inst.n + 1))
    members = rng.choice(inst.n, size=m, replace=False)
    vals = rng.normal(size=m)
    full = lip_constant(inst, vals, members)
    assert lip_constant(inst, vals + shift, members) == pytest.approx(full, rel=1e-12)
    sub = rng.integers(0, 2, size=m).astype(bool)
    if sub.sum() >= 1:
        assert lip_constant(inst, vals[sub], members[sub]) <= full + 1e-12 * (1 + full)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 40), st.integers(1, 5))
def test_every_euclidean_cloud_validates(seed, n, dim):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-10, 10, (n, dim))
    inst = instance_from_arrays(coords=coords, subset=[0, n - 1],
                                values=[0.0, 1.0])
    assert inst.n == n


# --- lipa_profile ------------------------------------------------------------


def test_lipa_profile_two_point_grid():
    inst = grid_instance(2)
    prof = lipa_profile(inst, inst.subset, inst.values, 0, [0.5, 2.0])
    # local constant vanishes at the subset point, global constant once both
    # endpoints enter the ball
    assert prof.tolist() == [0.0, 1.0]


def test_lipa_profile_constant_and_singleton(line3):
    prof = lipa_profile(line3, [0, 1, 2], np.zeros(3), 0, [0.1, 0.6, 2.0])
    assert prof.tolist() == [0.0, 0.0, 0.0]
    prof = lipa_profile(line3, [1], np.array([4.0]), 1, [0.1, 1.0])
    assert prof.tolist() == [0.0, 0.0]


def test_lipa_profile_validation(line3):
    with pytest.raises(ParameterError):
        lipa_profile(line3, [0, 1], np.zeros(2), 2, [0.5])
    with pytest.raises(ParameterError):
        lipa_profile(line3, [0, 1], np.zeros(2), 0, [0.5, 0.5])


@pytest.mark.parametrize("radii", [[np.inf], [0.5, np.inf], [np.nan], [0.5, np.nan]])
def test_check_radii_rejects_non_finite(line3, radii):
    with pytest.raises(ParameterError, match="finite"):
        _check_radii(radii)
    with pytest.raises(ParameterError):
        lipa_profile(line3, [0, 1], np.zeros(2), 0, radii)


def test_lipa_profile_monotone_and_bounded():
    inst = random_instance(11, n_max=50)
    rng = np.random.default_rng(1)
    domain = np.arange(inst.n)
    vals = rng.normal(size=inst.n)
    radii = np.linspace(0.05, 3.0, 9)
    prof = lipa_profile(inst, domain, vals, 0, radii)
    assert np.all(np.diff(prof) >= 0)
    assert prof[-1] <= lip_constant(inst, vals, domain) + 1e-12


def test_lipa_profile_matches_ball_scan():
    inst = random_instance(5, n_max=40)
    rng = np.random.default_rng(2)
    domain = np.arange(inst.n)
    vals = rng.normal(size=inst.n)
    for r in [0.1, 0.4, 0.9]:
        prof = lipa_profile(inst, domain, vals, 3, [r])
        ball = domain[dense(inst)[3, domain] < r]
        assert prof[0] == pytest.approx(
            oracle_lip(inst, vals[ball], ball), abs=1e-14)
