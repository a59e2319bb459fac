"""The one worker pool, ``metric._pool``, and the loops that run on it: the triangle
strips, the extension's query blocks (full and localized), the McShane cones and
the passes of the quartile select.

Each loop runs every task exactly once on ``min(CPUs in the affinity mask, tasks,
4)`` workers when it forms at least ``_FLOOR`` budgets of entries, and on the caller
alone below that floor; it gives the same bits at every worker count, and goes on
with the workers it has when a thread cannot start.  The CPU counts are faked, never
so high that more than three threads could start.  Tests of the thread path on small
inputs put their loops over the floor by lowering ``_BLOCK`` or ``_FLOOR``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from lipext import (InstanceValidationError, build_profiles, cutoff_support, extend,
                    extend_localized, instance_from_arrays, mcshane_upper_many, metric,
                    schedule_for_instance)
from lipext import extension
from lipext.metric import TRIANGLE_RTOL, MetricInstance, _triangle_violators
from lipext.verification import _distance_quartiles, check_localization, run_suite

from conftest import count_starts, dense, fake_cpus
from test_metric import _many_strips, _plant, _triangle_oracle, _violating_rows
from test_verification import _cloud, _np_quartiles, _traced_peak


def _slow_caller(seconds=0.002):
    """Sleep ``seconds`` on the calling thread only: the threads then take tasks."""
    caller = threading.main_thread()
    if threading.current_thread() is caller:
        time.sleep(seconds)


def _over():
    """Entries of a loop at the floor: the least that may start threads."""
    return metric._FLOOR * metric._BLOCK


def _work_log(take):
    """A ``work`` for :func:`metric._pool` that lists the tasks its worker took."""
    mine = []
    for task in take:
        mine.append(task)
        _slow_caller(0.0005)
    return mine


# --- the helper itself -------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_pool_runs_every_task_once_in_order(monkeypatch, cpus):
    fake_cpus(monkeypatch, cpus)
    started = count_starts(monkeypatch)
    done = metric._pool(_over(), list(range(37)), _work_log)
    assert len(done) == cpus and len(started) == cpus - 1
    assert sorted(t for mine in done for t in mine) == list(range(37))
    assert all(mine == sorted(mine) for mine in done)   # each takes its tasks in order
    assert not any(t.is_alive() for t in started)


@pytest.mark.parametrize("cpus,tasks,threads", [
    (64, 100, 3),   # at most 4 workers, whatever the affinity mask holds
    (64, 3, 2),     # no more workers than tasks
    (4, 1, 0),      # one task: the caller alone
    (4, 0, 0),      # no task: the caller alone, and nothing runs
    (1, 100, 0),    # one CPU: the caller alone
])
def test_pool_thread_count(monkeypatch, cpus, tasks, threads):
    fake_cpus(monkeypatch, cpus)
    started = count_starts(monkeypatch)
    done = metric._pool(_over(), range(tasks), _work_log)
    assert len(started) == threads
    assert sorted(t for mine in done for t in mine) == list(range(tasks))


@pytest.mark.parametrize("block", [None, 1024])
def test_pool_starts_threads_only_from_the_floor(monkeypatch, block):
    # At 4 faked CPUs a loop one entry below _FLOOR budgets runs on the caller alone
    # and starts no thread; at the floor it runs on 4 workers and starts 3.  The
    # floor is counted in budgets, so a lower _BLOCK lowers it with it.
    if block is not None:
        monkeypatch.setattr(metric, "_BLOCK", block)
    fake_cpus(monkeypatch, 4)
    started = count_starts(monkeypatch)
    floor = metric._FLOOR * metric._BLOCK
    assert floor == metric._FLOOR * (block or 1 << 16)
    below = metric._pool(floor - 1, range(40), _work_log)
    assert started == [] and len(below) == 1
    at = metric._pool(floor, range(40), _work_log)
    assert len(started) == 3 and len(at) == 4
    for done in (below, at):
        assert sorted(t for mine in done for t in mine) == list(range(40))


def test_every_loop_states_the_entries_it_forms(monkeypatch):
    # The triangle a quarter of its n^2 (n + 1) / 2 sums, the query blocks queries x
    # anchors, the cones and the cutoff queries x |C|, and each quartile pass n (n - 1) / 2.
    pool, stated = metric._pool, []

    def counted_pool(entries, tasks, work):
        stated.append(entries)
        return pool(entries, tasks, work)
    monkeypatch.setattr(metric, "_pool", counted_pool)
    monkeypatch.setattr(extension, "_pool", counted_pool)
    d = _many_strips(monkeypatch)
    instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
    assert stated == [60 * 60 * 61 // 8]
    inst, _ = _tie_instance()
    sch = schedule_for_instance(inst, 0.5)
    bank = build_profiles(inst, sch)
    stated.clear()
    field = extend(inst, sch, np.arange(50), profiles=bank)
    extend_localized(inst, sch, np.arange(30), profiles=bank)
    mcshane_upper_many(inst, 2.0, np.arange(20))
    cutoff_support(field, inst, 1.0)
    assert stated == [50 * len(bank.anchors), 30 * len(bank.anchors), 20 * 4, 50 * 4]
    stated.clear()
    monkeypatch.setattr(metric, "_BLOCK", 50)     # three radix passes
    _distance_quartiles(inst)
    assert stated == [80 * 79 // 2] * 3


@pytest.mark.parametrize("fail", [(1,), (2,), "all"])
def test_pool_goes_on_when_a_thread_cannot_start(monkeypatch, fail):
    # Four faked CPUs ask for three threads; the workers that run take every task.
    fake_cpus(monkeypatch, 4)
    started = count_starts(monkeypatch, fail)
    done = metric._pool(_over(), range(40), _work_log)
    assert len(started) == {(1,): 2, (2,): 2, "all": 0}[fail]
    assert len(done) == len(started) + 1
    assert sorted(t for mine in done for t in mine) == list(range(40))


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_pool_raises_the_lowest_failing_task(monkeypatch, cpus):
    # Tasks 5 and 9 fail, task 5 last: its exception surfaces at every worker count,
    # after every thread has joined, and no task past a failure is handed out.
    fake_cpus(monkeypatch, cpus)
    started, ran = count_starts(monkeypatch), []

    def work(take):
        for t in take:
            ran.append(t)
            if t == 5:
                time.sleep(0.01)
                raise ValueError("task 5")
            if t == 9:
                raise KeyError("task 9")
            _slow_caller(0.001)
    with pytest.raises(ValueError, match="task 5"):
        metric._pool(_over(), range(40), work)
    assert not any(t.is_alive() for t in started)
    assert set(range(6)) <= set(ran) and len(ran) < 40


def test_pool_workers_keep_the_callers_errstate(monkeypatch):
    # numpy's error state is per thread: each worker runs under the caller's.
    fake_cpus(monkeypatch, 4)

    def work(take):
        return [np.float64(1e308) * 10 for _ in take]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        metric._pool(_over(), range(8), work)
    with np.errstate(over="ignore"):
        done = metric._pool(_over(), range(8), work)
    assert [v for mine in done for v in mine] == [np.inf] * 8


# --- the loops on it ---------------------------------------------------------


def _tie_instance():
    """A cloud mirrored in x = 0 with equal values on mirrored anchors, so mirrored
    bank rows are equal: the queries on x = 0 sit at equal distance from point 3 at
    (1, 0) and point 7 at (-1, 0), whose rows tie there, 7 before 3 in the bank."""
    rng = np.random.default_rng(36)
    coords = rng.uniform(-2.0, 2.0, (80, 2))
    coords[[3, 7, 11, 13]] = (1.0, 0.0), (-1.0, 0.0), (3.0, 1.0), (-3.0, 1.0)
    ties = np.arange(20, 80, 3)
    coords[ties] = np.stack([np.zeros(len(ties)), np.linspace(-0.9, 0.9, len(ties))], axis=1)
    inst = instance_from_arrays(coords=coords, subset=[7, 3, 13, 11],
                                values=[0.5, 0.5, 2.0, 2.0])
    return inst, ties


def test_lowest_anchor_wins_ties_in_blocks_of_different_workers(monkeypatch):
    inst, ties = _tie_instance()
    queries = np.arange(inst.n)
    sch = schedule_for_instance(inst, 0.5, queries)
    bank = build_profiles(inst, sch)
    T, phi = extension._family(inst, bank, ties)
    assert np.array_equal(phi[0], phi[1]) and np.all(phi[0] == phi.min(axis=0))   # real ties
    monkeypatch.setattr(metric, "_BLOCK", 3 * len(bank.anchors))    # 3 queries per block
    monkeypatch.setattr(metric, "_FLOOR", 1)    # 80 queries: over the floor
    family, takers = extension._family, {}

    def logged(instance, profiles, points):     # every worker waits after each block
        takers.setdefault(threading.current_thread(), []).extend(points.tolist())
        time.sleep(0.002)
        return family(instance, profiles, points)
    monkeypatch.setattr(extension, "_family", logged)
    fields = {}
    for cpus in (1, 2, 4):
        fake_cpus(monkeypatch, cpus)
        got = []
        for localized in (False, True):
            takers.clear()
            field, more = extension._infimum(inst, sch, queries, bank, localized)
            assert np.all(field.anchors[ties] == 3)
            # The tie queries were read by more than one worker when there are.
            assert len([t for t, pts in takers.items() if set(pts) & set(ties)]) >= min(cpus, 2)
            got += [field.values, field.anchors, field.localization]
        near, margin, far = more
        assert np.all(near[ties] == 3)     # the nearest anchor ties too
        fields[cpus] = got + [near, margin, far]
    for got in fields.values():
        for a, b in zip(got, fields[1]):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_extension_and_cone_blocks_run_once(monkeypatch, cpus):
    # Every query is in exactly one block of the full pass, the localized pass of
    # check_localization, the cone pass and the cutoff's d(., C), and each block holds
    # at most one budget, whatever the worker count.
    inst, _ = _tie_instance()
    queries = np.arange(inst.n)[::-1].copy()
    sch = schedule_for_instance(inst, 0.5, queries)
    bank = build_profiles(inst, sch)
    monkeypatch.setattr(metric, "_BLOCK", 40 * len(bank.anchors))
    monkeypatch.setattr(metric, "_FLOOR", 1)    # 80 queries: every pass over the floor
    fake_cpus(monkeypatch, cpus)
    started = count_starts(monkeypatch)
    read, family, distances = [], extension._family, MetricInstance.distances

    def logged_family(instance, profiles, points):
        read.append(points.tolist())
        return family(instance, profiles, points)

    def logged_distances(self, rows, cols):
        if len(rows) == len(inst.subset) and np.array_equal(rows, inst.subset):
            read.append(np.asarray(cols).tolist())
        return distances(self, rows, cols)
    monkeypatch.setattr(extension, "_family", logged_family)
    field = extend(inst, sch, queries, profiles=bank)
    assert sorted(sum(read, [])) == list(range(inst.n))
    assert max(map(len, read)) * len(bank.anchors) <= metric._BLOCK
    whole = metric._row_blocks(inst.n, len(bank.anchors))      # at every worker count
    assert sorted(read) == sorted(queries[s].tolist() for s in whole)
    read.clear()
    check_localization(inst, field, bank)
    assert sorted(sum(read, [])) == list(range(inst.n))
    monkeypatch.setattr(extension, "_family", family)
    monkeypatch.setattr(MetricInstance, "distances", logged_distances)
    read.clear()
    upper, lower = mcshane_upper_many(inst, 2.0, queries), extension._cones(inst, 2.0, queries)[1]
    assert sorted(sum(read, [])) == sorted(2 * list(range(inst.n)))
    read.clear()
    cut = cutoff_support(field, inst, 1.0)
    assert sorted(sum(read, [])) == list(range(inst.n))
    assert max(map(len, read)) * len(inst.subset) <= metric._BLOCK
    monkeypatch.setattr(MetricInstance, "distances", distances)
    dd = dense(inst)[np.ix_(inst.subset, queries)]
    assert np.array_equal(upper, np.min(inst.values[:, None] + 2.0 * dd, axis=0))
    assert np.array_equal(lower, np.max(inst.values[:, None] - 2.0 * dd, axis=0))
    m_sup = max(float(np.max(np.abs(field.values))), field.g_abs_max)
    chi = np.clip(2.0 - (1.0 / (2.0 * m_sup)) * dd.min(axis=0), 0.0, 1.0)
    assert np.array_equal(cut.values, chi * field.values)
    assert (started == []) == (cpus == 1)


def test_whole_query_blocks_cost_a_fixed_memory_per_worker(monkeypatch):
    # Over the floor each worker of the full pass, the localized pass and the cones takes
    # whole blocks of one budget, with its own temporaries: the traced peak grows by the
    # same few budgets per extra worker at both sizes (about 5.8, 6.3 and 3.3 on a 2-core
    # x86-64 host; the bound is 7, and the two sizes agree within 1 budget).
    budget, growth, started = 8 * metric._BLOCK, {}, count_starts(monkeypatch)
    for n in (8000, 12000):
        inst, queries = _cloud(n), np.arange(n)
        sch = schedule_for_instance(inst, 0.5, queries)
        bank = build_profiles(inst, sch)
        assert n * min(len(bank.anchors), len(inst.subset)) >= metric._FLOOR * metric._BLOCK
        loops = {"full": lambda: extension._infimum(inst, sch, queries, bank, False),
                 "localized": lambda: extension._infimum(inst, sch, queries, bank, True),
                 "cones": lambda: extension._cones(inst, inst.lipschitz_L, queries)}
        for name, loop in loops.items():
            peaks = {}
            for cpus in (1, 4):
                fake_cpus(monkeypatch, cpus)
                threads = len(started)
                peaks[cpus] = _traced_peak(loop)[1]
                assert len(started) - threads == cpus - 1
            growth[name, n] = (peaks[4] - peaks[1]) / 3 / budget
    assert all(1 <= g <= 7 for g in growth.values()), growth
    assert all(abs(growth[name, 8000] - growth[name, 12000]) <= 1 for name in loops), growth


def test_one_query_starts_no_thread(monkeypatch):
    inst, _ = _tie_instance()
    sch = schedule_for_instance(inst, 0.5)
    bank = build_profiles(inst, sch)
    fake_cpus(monkeypatch, 4)
    started = count_starts(monkeypatch)
    extend(inst, sch, [5], profiles=bank)
    extend_localized(inst, sch, [5], profiles=bank)
    mcshane_upper_many(inst, 2.0, [5])
    assert started == []


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_distance_quartiles_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    # At this budget the select histograms two 16-bit digits, then keeps the few
    # entries left: three passes, each of which reads every row exactly once.
    rng = np.random.default_rng(9)
    inst = instance_from_arrays(coords=rng.uniform(0.0, 1.0, (300, 3)), subset=[0],
                                values=[0.0])
    dd = dense(inst)
    want = np.quantile(dd[dd > 0], [0.25, 0.5, 0.75]).tolist()
    monkeypatch.setattr(metric, "_BLOCK", 50)
    fake_cpus(monkeypatch, cpus)
    rows, upper, pool, passes = [], metric._upper_blocks, metric._pool, []

    def counted_blocks(instance, points, blocks=None):
        for a, d, mask in upper(instance, points, blocks):
            rows.extend(range(a, a + len(d)))
            yield a, d, mask

    def counted_pool(entries, tasks, work):
        passes.append(entries)
        return pool(entries, tasks, work)
    monkeypatch.setattr(metric, "_upper_blocks", counted_blocks)
    monkeypatch.setattr(metric, "_pool", counted_pool)
    assert _distance_quartiles(inst) == want
    assert passes == [inst.n * (inst.n - 1) // 2] * 3   # each over the floor of this budget
    assert sorted(rows) == sorted(3 * list(range(inst.n - 1)))


def test_whole_quartile_blocks_cost_a_fixed_memory_per_worker(monkeypatch):
    # Over the floor each quartile worker takes whole blocks, with its own buffer of one
    # budget and its temporaries: the traced peak grows by the same few budgets per
    # extra worker at both sizes (4.27 budgets, 2.13 MiB, on a 2-core x86-64 host;
    # the bound is 6 budgets, 3 MiB, and the two sizes agree within 1 budget).
    budget, growth = 8 * metric._BLOCK, {}
    for n in (3000, 4000):
        assert n * (n - 1) // 2 >= metric._FLOOR * metric._BLOCK
        inst, peaks = _cloud(n), {}
        for cpus in (1, 4):
            fake_cpus(monkeypatch, cpus)
            started = count_starts(monkeypatch)
            got, peaks[cpus] = _traced_peak(_distance_quartiles, inst)
            assert len(started) % 3 == 0 and (started == []) == (cpus == 1)   # 3 a pass
        assert got == _np_quartiles(inst)
        growth[n] = (peaks[4] - peaks[1]) / 3 / budget
    assert all(0 < g <= 6 for g in growth.values()), growth
    assert abs(growth[3000] - growth[4000]) <= 1, growth


def test_shared_counts_survive_a_short_switch_interval(monkeypatch):
    # More workers than cores, and the GIL passed every microsecond: the handout and
    # the histograms and kept lists the quartile workers share lose no update.
    rng = np.random.default_rng(11)
    inst = instance_from_arrays(coords=rng.uniform(0.0, 1.0, (200, 2)), subset=[0],
                                values=[0.0])
    dd = dense(inst)
    want = np.quantile(dd[dd > 0], [0.25, 0.5, 0.75]).tolist()
    monkeypatch.setattr(metric, "_BLOCK", 64)
    fake_cpus(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_distance_quartiles(inst) for _ in range(3)]
        done = metric._pool(_over(), range(3000), lambda take: sum(1 for _ in take))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3 and sum(done) == 3000


def test_no_loop_starts_more_than_three_threads(monkeypatch):
    # A 64-CPU mask: every loop (the triangle strips, the query blocks, the cones and
    # the quartile passes) runs on at most three threads besides the caller.
    fake_cpus(monkeypatch, 64)
    started, alive = count_starts(monkeypatch), []
    start = threading.Thread.start

    def watched(self):
        start(self)
        alive.append(sum(t.is_alive() for t in started))
    monkeypatch.setattr(threading.Thread, "start", watched)
    d = _many_strips(monkeypatch)
    instance_from_arrays(dmatrix=d, subset=[0, 9, 30], values=[0.0, 1.0, 0.5])
    assert alive and max(alive) <= 3
    monkeypatch.setattr(metric, "_BLOCK", 64)
    monkeypatch.setattr(metric, "_FLOOR", 1)    # every loop of run_suite over the floor
    inst, _ = _tie_instance()
    strips = len(started)
    run_suite(inst, 0.5)
    assert len(started) > strips and max(alive) <= 3


@pytest.mark.parametrize("fail", [(1,), (2,), "all"])
def test_triangle_certificate_when_a_thread_cannot_start(monkeypatch, fail):
    # The rows and the witness of a matrix with planted violations are those of
    # every worker count, whichever threads fail to start.
    d = _many_strips(monkeypatch)
    pairs = ((1, 2), (29, 30), (57, 59), (5, 50))
    for i, k in pairs:
        _plant(d, i, k, above=True)
    tol = TRIANGLE_RTOL * float(d.max())
    fake_cpus(monkeypatch, 4)
    started = count_starts(monkeypatch, fail)
    assert _triangle_violators(d, tol).tolist() == _violating_rows(d, tol)
    with pytest.raises(InstanceValidationError) as exc:
        instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
    assert exc.value.witness == _triangle_oracle(d)
    # Two scans ask for three threads each; the calls are numbered across both.
    assert len(started) == {(1,): 5, (2,): 5, "all": 0}[fail]
