"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from lipext import (build_profiles, check_extension_energy, energy,
                    extend, extend_localized, lip_constant, locality_radius,
                    mcshane_upper_many, build_schedule,
                    schedule_for_instance, validate_measure)
from lipext import extension
from lipext.cli import grid_instance, main

from conftest import bank_rows, dense, eval_pen, random_instance, random_masses

N_INSTANCES = 50
_CASES: dict[int, dict] = {}


def case(seed):
    """Instance with schedule/profiles/field at epsilon = L/2, cached."""
    if seed not in _CASES:
        inst = random_instance(seed)
        eps = inst.lipschitz_L / 2.0
        sch = schedule_for_instance(inst, eps)
        profiles = build_profiles(inst, sch)
        field = extend(inst, sch, profiles=profiles)
        _CASES[seed] = {"inst": inst, "eps": eps, "sch": sch,
                        "profiles": profiles, "field": field}
    return _CASES[seed]


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _pair_lip(inst, queries, values):
    dist = inst.distances(queries, queries)
    iu = np.triu_indices(len(queries), k=1)
    return float(np.max(np.abs(values[:, None] - values[None, :])[iu] / dist[iu]))


def test_criterion_01_extension_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(N_INSTANCES):
        c = case(seed)
        inst, field = c["inst"], c["field"]
        pos = inst.subset_positions()[field.queries]
        onc = pos >= 0
        gap = float(np.max(np.abs(field.values[onc] - inst.values[pos[onc]])))
        tol = 1e-12 * (1.0 + float(np.max(np.abs(inst.values))))
        worst = max(worst, gap / tol)
        assert gap <= tol, f"seed {seed}: |f-g| = {gap}"
    elapsed = time.perf_counter() - t0
    _report(1, "extension identity on 50 random instances",
            elapsed < 10.0, f"worst gap {worst:.2e} of tolerance, {elapsed:.2f}s")


def test_criterion_02_global_budget():
    worst = -np.inf
    for seed in range(N_INSTANCES):
        c = case(seed)
        inst = c["inst"]
        L = inst.lipschitz_L
        for eps in (L, L / 2.0, L / 10.0):
            if eps == L / 2.0:
                field = c["field"]
            else:
                field = extend(inst, schedule_for_instance(inst, eps))
            got = _pair_lip(inst, field.queries, field.values)
            assert got <= L + eps + 1e-9, f"seed {seed}, eps {eps}: Lip = {got}"
            worst = max(worst, got - (L + eps))
    _report(2, "global budget Lip(f) <= L + eps, eps in {L, L/2, L/10}",
            True, f"worst excess {worst:.2e}")


def test_criterion_03_endpoint_grid_reproduction():
    t0 = time.perf_counter()
    inst = grid_instance(1001)
    allpts = np.arange(inst.n, dtype=np.intp)
    d0 = dense(inst)[0]

    ms = mcshane_upper_many(inst, 1.0, allpts)
    for r in (0.1, 0.3, 0.5):
        ball = allpts[d0 < r]
        got = lip_constant(inst, ms[ball], ball)
        assert abs(got - 1.0) <= 1e-12, f"McShane Lip at r={r}: {got}"

    sch = schedule_for_instance(inst, 1.0, locality=(0.5, 0.1))
    r = locality_radius(sch, 0.5, 0.1, inst.lipschitz_L)[1]
    field = extend(inst, sch)
    cball = inst.subset[d0[inst.subset] < 0.5]
    assert lip_constant(inst, inst.g_at(cball), cball) == 0.0
    ball = allpts[d0 < r]
    got = lip_constant(inst, field.values[ball], ball)
    assert got <= 0.1, f"extension Lip at scheduled r={r}: {got}"
    elapsed = time.perf_counter() - t0
    _report(3, "endpoint-grid reproduction (McShane 1 vs extension <= xi)",
            elapsed < 1.0, f"scheduled r={r:.3e}, Lip(f)={got}, {elapsed:.2f}s")


def test_criterion_04_step2_inequality():
    worst = np.inf
    for seed in range(100, 120):
        inst = random_instance(seed)
        eps = inst.lipschitz_L / 3.0
        sch = schedule_for_instance(inst, eps)
        profiles = build_profiles(inst, sch)
        L = inst.lipschitz_L
        tol = 1e-9 * inst.check_scale()
        g = inst.values
        dC = inst.distances(inst.subset, inst.subset)
        skipped = 0
        for a in range(len(inst.subset)):
            for b in range(len(inst.subset)):
                if a == b:
                    continue
                d = float(dC[a, b])
                j = int(np.searchsorted(sch.eps, d, side="right"))
                if j < 2 or j > len(sch.eps) - 1:
                    skipped += 1
                    continue
                phi = g[a] + eval_pen(bank_rows(profiles, [a]), d)
                bound = g[b] + sch.eps[j - 2] * L
                assert phi >= bound - tol, (
                    f"seed {seed}: pair ({inst.subset[a]},{inst.subset[b]})")
                worst = min(worst, phi - bound)
        assert skipped == 0
    _report(4, "step-2 lower bound over all ordered subset pairs",
            True, f"20 instances, worst margin {worst:.2e}")


def test_criterion_05_localization_oracle_equivalence():
    margins_checked = 0
    for seed in range(N_INSTANCES):
        c = case(seed)
        inst, sch, profiles, field = c["inst"], c["sch"], c["profiles"], c["field"]
        L = inst.lipschitz_L
        phi = inst.values[:, None] + profiles.pen(
            inst.distances(inst.subset, field.queries))
        d_near = inst.distances(inst.subset, field.queries)
        xbars = []
        for qi in range(len(field.queries)):
            near = int(np.argmin(d_near[:, qi]))
            ties = np.flatnonzero(d_near[:, qi] == d_near[near, qi])
            xbars.append(int(inst.subset[ties[np.argmin(inst.subset[ties])]]))
        loc = extend_localized(inst, sch, field.queries, profiles=profiles)
        for qi, (y, xbar, rec) in enumerate(zip(field.queries, xbars,
                                                loc.localization)):
            assert loc.values[qi] == field.values[qi], f"seed {seed} query {y}"
            if rec == "full":
                continue
            assert rec["xbar"] == xbar
            k = rec["k"]
            excl = np.flatnonzero(
                inst.distances(inst.subset, [xbar])[:, 0] >= sch.eps_at(k))
            if len(excl):
                lhs = phi[excl, qi]
                rhs = field.values[qi] + sch.eps_at(k - 1) * L / 3.0 - 1e-9
                assert np.all(lhs >= rhs), f"seed {seed} query {y}: exclusion margin"
                margins_checked += len(excl)
    _report(5, "localized evaluation equals the full infimum bitwise",
            True, f"{margins_checked} exclusion margins verified")


def test_criterion_06_envelope_sandwich():
    for seed in range(N_INSTANCES):
        c = case(seed)
        inst, field, eps = c["inst"], c["field"], c["eps"]
        budget = inst.lipschitz_L + eps
        upper = mcshane_upper_many(inst, budget, field.queries)
        lower = extension._cones(inst, budget, field.queries)[1]
        tol = 1e-12 * inst.check_scale()
        assert np.all(field.values <= upper + tol), f"seed {seed}: above upper"
        assert np.all(field.values >= lower - tol), f"seed {seed}: below lower"
    _report(6, "envelope sandwich at L + eps", True)


def test_criterion_07_profile_legality():
    n_profiles = 0
    for seed in range(N_INSTANCES):
        c = case(seed)
        sch = c["sch"]
        cap = sch.L_eff + sch.eps_eff
        bank = c["profiles"]
        bp = bank.breakpoints
        for i in range(len(bank.anchors)):
            s, row = bank.slopes[i], bank_rows(bank, [i])   # base, bands, tail
            assert np.all(np.diff(s) >= 0)
            assert np.all(s >= 0) and np.all(s <= cap)
            assert 0 <= s[0] <= s[1]
            assert s[-2] <= s[-1] <= cap
            assert eval_pen(row, 0.0) == 0.0
            assert bank.cumulative[i, 0] == 0.0
            assert bank.cumulative[i, 1] == s[0] * bp[0]
            cum = s[0] * bp[0]
            for j in range(1, len(bp)):
                cum = cum + s[j] * (bp[j] - bp[j - 1])
                assert cum == bank.cumulative[i, j + 1]  # exact prefix-sum identity
                assert eval_pen(row, float(bp[j])) == cum
            n_profiles += 1
    _report(7, "profile legality (convex, within [0, L+eps], exact prefix sums)",
            True, f"{n_profiles} profiles")


def test_criterion_08_step6_composition(tmp_path):
    rng = np.random.default_rng(7)
    core = rng.uniform(0.0, 1.0, (25, 2))
    far = rng.uniform(30.0, 50.0, (15, 2))
    coords = np.vstack([core, far])
    subset = list(range(8))
    values = rng.uniform(-1.0, 1.0, 8)
    doc = {"points": {"type": "euclidean", "coords": coords.tolist()},
           "subset": subset, "values": values.tolist()}
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "cut.json"
    epsilon = 0.8
    assert main(["extend", "--input", str(path), "--epsilon", str(epsilon),
                 "--queries", "all", "--cutoff", "--output", str(out)]) == 0
    got = json.loads(out.read_text())
    vals = np.array([e["value"] for e in got["entries"]])

    from lipext import instance_from_arrays
    inst = instance_from_arrays(coords=coords, subset=subset, values=values)
    L = inst.lipschitz_L
    d_c = inst.distances(inst.subset, np.arange(inst.n)).min(axis=0)
    m_sup = max(float(np.max(np.abs(vals))), float(np.max(np.abs(values))))
    far_mask = d_c >= 4.0 * m_sup / epsilon
    assert np.any(far_mask) and np.all(vals[far_mask] == 0.0)
    assert np.allclose(vals[:8], values, rtol=0, atol=1e-12)
    got_lip = _pair_lip(inst, np.arange(inst.n), vals)
    assert got_lip <= L + epsilon + 1e-9
    _report(8, "step-6 cutoff: bounded support, intact restriction, budget kept",
            True, f"Lip(chi f) = {got_lip:.6g} <= {L + epsilon:.6g}")


def test_criterion_09_energy_integrand_checks():
    xi = 0.05
    for seed in range(200, 220):
        inst = random_instance(seed, n_max=120)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=inst.n)
        dd = dense(inst)
        pos = dd[dd > 0]
        radii = np.unique(np.quantile(pos, np.linspace(0.05, 0.95, 10)))
        allpts = np.arange(inst.n, dtype=np.intp)
        for p in (1.0, 2.0):
            measure = validate_measure(inst, random_masses(inst, seed), p)
            sides_x = energy(inst, allpts, h, measure, radii)
            sides_c = energy(inst, inst.subset, h[inst.subset], measure, radii)
            for r, side_x, side_c in zip(radii, sides_x, sides_c):
                e_x, e_c = side_x.total, side_c.total
                assert e_c <= e_x + 1e-9 * max(1.0, e_x), f"seed {seed} r {r}"
            rbar = [float(np.quantile(pos, 0.3)), float(np.quantile(pos, 0.6))]
            check, _ = check_extension_energy(inst, measure, rbar, xi=xi)
            assert check.passed, f"seed {seed} p {p}: {check.witness}"
    _report(9, "integrand-level energy checks (restriction + extension bounds)",
            True, "relaxed functionals out of scope by design")


def test_criterion_10_schedule_laws():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        L = float(10.0 ** rng.uniform(-3, 3))
        epsilon = float(10.0 ** rng.uniform(-3, 3))
        anchor = float(10.0 ** rng.uniform(-2, 2))
        sch = build_schedule(L, epsilon, anchor, span_low=anchor * 1e-6,
                             span_high=anchor * 12.0)
        bound = epsilon / (3.0 * (L + epsilon))
        assert np.all(sch.ratio <= bound)
        assert np.all(np.diff(sch.ratio) >= 0)
        assert np.all(3.0 * sch.eps[:-2] <= sch.eps[1:-1])
        assert np.all(sch.eps[:-1] == sch.ratio * sch.eps[1:])  # bitwise exact
    _report(10, "schedule laws over 100 random (L, eps) pairs", True)
