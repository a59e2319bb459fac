import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipext import (InstanceValidationError, ParameterError,
                    instance_from_arrays, lip_constant, lipa_profile, run_suite,
                    validate_instance)
from lipext import metric
from lipext.metric import (TRIANGLE_RTOL, _check_radii, _euclidean_matrix,
                           _triangle_violators)

from conftest import dense, grid_instance, oracle_lip, random_instance


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


R = 64      # rows per block of the triangle certificate: _BLOCK is R * n


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
        mp.setattr(metric, "_BLOCK", R * len(d))
        try:
            instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
        except InstanceValidationError as exc:
            assert exc.reason == "triangle inequality violated"
            rows = _triangle_violators(d, tol).tolist()
            assert exc.witness["i"] in rows and exc.witness["k"] in rows
            return exc.witness
        assert len(_triangle_violators(d, tol)) == 0
    return None


# (n, pairs to stretch): a pair far apart (rows in different blocks once
# n > R), a pair near the diagonal (inside the last block when n = 2R+5),
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
    # Pair (1, n-2) sits in the first row block, pair (n-3, n-1) in the last;
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
    # row blocks; the certificate names exactly their rows, and the witness
    # scan over those rows finds the per-pivot oracle's witness.
    n = 4 * R + 7
    monkeypatch.setattr(metric, "_BLOCK", R * n)
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
