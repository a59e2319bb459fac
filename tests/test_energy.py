import tracemalloc

import numpy as np
import pytest

from lipext import (InstanceValidationError, ParameterError,
                    check_extension_energy, check_restriction_monotonicity,
                    energy, instance_from_arrays, lip_constant,
                    mcshane_upper_many, validate_measure)

from conftest import dense, grid_instance, oracle_lip, random_instance, random_masses


def _unit_measure(inst, p=1.0):
    return validate_measure(inst, None, p)


def test_measure_takes_numpy_scalars_but_not_bools():
    inst = grid_instance(5)
    for p in (np.int64(2), np.float32(2.0), np.float64(2.0)):
        got = validate_measure(inst, None, p)
        assert type(got.p) is float and got.p == 2.0
        assert np.array_equal(got.masses, validate_measure(inst, None, 2.0).masses)
    for flag in (True, np.bool_(True)):
        with pytest.raises(ParameterError, match="exponent p must be a finite real >= 1"):
            validate_measure(inst, None, flag)


def test_measure_rejects_integers_beyond_float_range():
    inst = grid_instance(5)
    for p in (10 ** 400, -10 ** 400):
        with pytest.raises(ParameterError, match="exponent p must be a finite real >= 1"):
            validate_measure(inst, None, p)
    for mass in (10 ** 400, -10 ** 400):
        masses = [0.0] * inst.n
        masses[inst.subset[0]] = mass
        with pytest.raises(InstanceValidationError, match="finite and nonnegative") as exc:
            validate_measure(inst, masses, 1.0)
        assert exc.value.witness == {"index": int(inst.subset[0])}


def test_measure_rejects_an_exponent_too_long_to_print():
    inst = grid_instance(5)
    for p in (10 ** 5000, -10 ** 5000):
        with pytest.raises(ParameterError, match="^exponent p must be a finite real >= 1, got"):
            validate_measure(inst, None, p)


@pytest.mark.parametrize("masses", [["a", 0, 0, 0, 1], [[1.0], 0, 0, 0, 1]],
                         ids=["string", "ragged"])
def test_malformed_masses_are_a_validation_error(masses):
    with pytest.raises(InstanceValidationError, match="malformed field") as exc:
        validate_measure(grid_instance(5), masses, 1.0)
    assert exc.value.field == "masses"


def test_measure_validation_errors():
    inst = grid_instance(5)
    with pytest.raises(ParameterError):
        validate_measure(inst, None, 0.5)
    masses = np.zeros(inst.n)
    masses[1] = 1.0  # off the subset
    with pytest.raises(InstanceValidationError, match="off the subset"):
        validate_measure(inst, masses, 1.0)
    with pytest.raises(InstanceValidationError, match="total mass"):
        validate_measure(inst, np.zeros(inst.n), 1.0)
    with pytest.raises(InstanceValidationError, match="nonnegative"):
        bad = np.zeros(inst.n)
        bad[0] = -1.0
        validate_measure(inst, bad, 1.0)
    with pytest.raises(InstanceValidationError, match="length"):
        validate_measure(inst, np.ones(3), 1.0)


def test_energy_constant_values_zero():
    inst = grid_instance(9)
    measure = _unit_measure(inst, 2.0)
    allpts = np.arange(inst.n)
    for r in (0.1, 0.5, 2.0):
        assert energy(inst, allpts, np.full(inst.n, 7.0), measure, [r])[0].total == 0.0


def test_energy_single_mass_is_ball_constant():
    inst = random_instance(4, n_max=40)
    masses = np.zeros(inst.n)
    x0 = int(inst.subset[0])
    masses[x0] = 1.0
    measure = validate_measure(inst, masses, 1.0)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=inst.n)
    allpts = np.arange(inst.n)
    r = 0.4
    side = energy(inst, allpts, vals, measure, [r])[0]
    ball = allpts[dense(inst)[x0, allpts] < r]
    assert side.total == pytest.approx(oracle_lip(inst, vals[ball], ball), rel=1e-12)


def test_energy_endpoint_grid_mcshane():
    # endpoints carry unit mass; the cone envelope is the identity, whose
    # constant is 1 on either half-ball, so E_X = 1^2 + 1^2 while the data on
    # the two-point subset has no pair inside radius 0.5
    inst = grid_instance(1001)
    measure = _unit_measure(inst, 2.0)
    ms = mcshane_upper_many(inst, 1.0, np.arange(inst.n))
    rep = check_restriction_monotonicity(inst, ms, measure, [0.5])[1][0]
    assert rep.on_space.total == pytest.approx(2.0, abs=1e-12)
    assert rep.on_subset.total == 0.0


def test_energy_monotone_in_radius_and_homogeneous():
    inst = random_instance(6, n_max=50)
    measure = validate_measure(inst, random_masses(inst, 6), 2.0)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=inst.n)
    allpts = np.arange(inst.n)
    totals = [energy(inst, allpts, vals, measure, [r])[0].total
              for r in (0.2, 0.5, 1.1, 2.5)]
    assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))
    lam = -2.5
    scaled = energy(inst, allpts, lam * vals, measure, [0.5])[0].total
    assert scaled == pytest.approx(abs(lam) ** measure.p
                                   * energy(inst, allpts, vals, measure, [0.5])[0].total,
                                   rel=1e-12)


def test_restriction_monotonicity_random_and_strict_case():
    for seed in (0, 3):
        inst = random_instance(seed, n_max=60)
        measure = validate_measure(inst, random_masses(inst, seed), 2.0)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=inst.n)
        check, reports = check_restriction_monotonicity(
            inst, h, measure, np.linspace(0.1, 1.5, 6))
        assert check.passed
        for rep in reports:
            assert rep.on_subset.total <= rep.on_space.total + 1e-9

    inst = grid_instance(1001)
    measure = _unit_measure(inst, 2.0)
    ms = mcshane_upper_many(inst, 1.0, np.arange(inst.n))
    check, reports = check_restriction_monotonicity(inst, ms, measure, [0.5])
    assert check.passed
    assert reports[0].on_space.total > reports[0].on_subset.total  # strict gap


def test_extension_energy_endpoint_grid():
    inst = grid_instance(1001)
    measure = _unit_measure(inst, 1.0)
    check, payload = check_extension_energy(inst, measure, [0.5], xi=0.1,
                                            epsilon=1.0)
    assert check.passed
    row = payload["rows"][0]
    assert row["bound"] == pytest.approx(0.2)   # two unit masses times xi
    assert row["E_X"] <= 0.2


def test_extension_energy_constant_data():
    inst = instance_from_arrays(coords=[[0.0], [0.6], [1.0]], subset=[0, 2],
                                values=[4.0, 4.0], lipschitz=3.0)
    measure = _unit_measure(inst, 2.0)
    check, payload = check_extension_energy(inst, measure, [0.5], xi=0.25)
    assert check.passed
    assert payload["rows"][0]["E_X"] <= 2.0 * 0.25 ** 2 + 1e-12


def test_restriction_monotonicity_constant_h_is_zero_vs_zero():
    inst = grid_instance(7)
    measure = _unit_measure(inst, 1.0)
    check, reports = check_restriction_monotonicity(
        inst, np.full(inst.n, 3.0), measure, [0.4, 1.2])
    assert check.passed
    assert all(rep.on_space.total == 0.0 and rep.on_subset.total == 0.0
               for rep in reports)


def test_extension_energy_bound_shrinks_with_xi():
    inst = random_instance(4, n_max=50)
    measure = validate_measure(inst, random_masses(inst, 4), 1.0)
    dd = dense(inst)
    rbar = [float(np.quantile(dd[dd > 0], 0.5))]
    check_a, pay_a = check_extension_energy(inst, measure, rbar, xi=0.2)
    check_b, pay_b = check_extension_energy(inst, measure, rbar, xi=0.02)
    assert check_a.passed and check_b.passed
    assert pay_b["rows"][0]["bound"] < pay_a["rows"][0]["bound"]


def test_extension_energy_random_instances():
    for seed in (1, 2):
        inst = random_instance(seed, n_max=60)
        measure = validate_measure(inst, random_masses(inst, seed), 1.0)
        dd = dense(inst)
        radii = [float(np.quantile(dd[dd > 0], q)) for q in (0.3, 0.6)]
        check, _ = check_extension_energy(inst, measure, radii, xi=0.1)
        assert check.passed, check.witness


def test_energy_parameter_errors():
    inst = grid_instance(5)
    measure = _unit_measure(inst)
    with pytest.raises(ParameterError):
        energy(inst, [0, 1], np.zeros(2), measure, [0.5])  # support not covered
    with pytest.raises(ParameterError):
        energy(inst, np.arange(inst.n), np.zeros(inst.n), measure, [-1.0])
    with pytest.raises(ParameterError, match="distinct"):
        energy(inst, [0, 1, 2, 3, 4, 0], np.zeros(6), measure, [0.5])
    with pytest.raises(ParameterError):
        check_extension_energy(inst, measure, [0.5], xi=0.0)


def test_energy_overflow_is_a_parameter_error():
    # Lip = 4 on the line, so 4 ** 1000 = 2 ** 2000 and (4 + 1e200) ** 2 leave
    # binary64; numpy's overflow warning, an error in this suite, stays silent.
    inst = instance_from_arrays(coords=[[0.0], [0.5], [1.0]], subset=[0, 2],
                                values=[0.0, 4.0])
    steep = _unit_measure(inst, 1000.0)
    with pytest.raises(ParameterError, match="^energy total does not fit in binary64$"):
        energy(inst, inst.subset, inst.values, steep, [2.0])
    with pytest.raises(ParameterError, match="^energy total does not fit in binary64$"):
        check_restriction_monotonicity(inst, np.array([0.0, 2.0, 4.0]), steep, [2.0])
    for measure, xi in ((steep, 0.1), (_unit_measure(inst, 2.0), 1e200)):
        with pytest.raises(ParameterError, match="^energy bound does not fit in binary64$"):
            check_extension_energy(inst, measure, [2.0], xi=xi)
    check, _ = check_extension_energy(inst, _unit_measure(inst, 2.0), [2.0], xi=1e100)
    assert check.passed


def test_extension_energy_rejects_non_finite_xi():
    inst = grid_instance(5)
    for xi in (float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            check_extension_energy(inst, _unit_measure(inst), [0.5], xi=xi)


def test_restriction_monotonicity_rejects_bad_radii():
    inst = grid_instance(5)
    h = np.linspace(0.0, 1.0, inst.n)
    for radii in ([], [[0.5]], [0.5, 0.0]):
        with pytest.raises(ParameterError, match="radii"):
            check_restriction_monotonicity(inst, h, _unit_measure(inst), radii)


def test_energy_radii_in_any_order_equal_one_call_per_radius():
    inst = random_instance(7, n_max=60)
    measure = validate_measure(inst, random_masses(inst, 7), 1.5)
    h = np.random.default_rng(3).normal(size=inst.n)
    allpts = np.arange(inst.n)
    radii = [0.6, 0.2, 0.6, 1.3, 0.05]
    sides = energy(inst, allpts, h, measure, radii)
    assert [side.radius for side in sides] == radii
    for r, side in zip(radii, sides):
        one = energy(inst, allpts, h, measure, [r])
        assert len(one) == 1
        assert one[0].total == side.total
        for key in ("support", "lips", "contributions"):
            assert np.array_equal(getattr(one[0], key), getattr(side, key))
    reports = check_restriction_monotonicity(inst, h, measure, radii)[1]
    assert [rep.radius for rep in reports] == radii
    assert [rep.on_space.total for rep in reports] == [s.total for s in sides]


@pytest.mark.parametrize("radii", [[np.nan], [np.inf], [0.3, np.nan]])
def test_non_finite_radii_rejected(radii):
    inst = grid_instance(5)
    measure = _unit_measure(inst)
    h = np.linspace(0.0, 1.0, inst.n)
    with pytest.raises(ParameterError, match="radii"):
        energy(inst, np.arange(inst.n), h, measure, radii)
    with pytest.raises(ParameterError, match="radii"):
        check_restriction_monotonicity(inst, h, measure, radii)
    with pytest.raises(ParameterError, match="radii"):
        check_extension_energy(inst, measure, radii, xi=0.1)


def test_energy_checks_memory_is_a_fraction_of_the_matrix():
    # Both energy checks read every ball constant from ball_lips, which streams
    # the pair ratios in fixed-size blocks of distances computed from the
    # coordinates: they hold no |members| x |members| array, although the space
    # energies run over all n points, and no n x n matrix.  (With the whole
    # ratio matrix the traced peak was 3.1 x; with a cached matrix, 1.27 x.)
    n = 2000
    rng = np.random.default_rng(6)
    coords = rng.uniform(0.0, 1.0, (n, 3))
    subset = np.sort(rng.choice(n, size=200, replace=False))
    h = rng.normal(size=n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = instance_from_arrays(coords=coords, subset=subset,
                                    values=np.sin(4.0 * coords[subset, 0]))
        measure = validate_measure(inst, None, 2.0)
        check, _ = check_restriction_monotonicity(inst, h, measure, [0.2, 0.4, 0.6])
        energy_check, _ = check_extension_energy(inst, measure, [0.2, 0.4, 0.6], 0.05)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert check.status == "pass" and energy_check.status == "pass"
    assert peak <= 0.4 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} x the matrix"
