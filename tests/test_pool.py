"""The one worker pool, ``metric._pool``, and the loops that run on it: the triangle
strips, the extension's query blocks (full and localized), the McShane cones and
the passes of the quartile select.

Each loop runs every task exactly once on ``min(CPUs in the affinity mask, tasks,
4)`` workers, gives the same bits at every worker count, and goes on with the
workers it has when a thread cannot start.  The CPU counts are faked, never so
high that more than three threads could start.
"""

import sys
import threading
import time

import numpy as np
import pytest

from lipext import (InstanceValidationError, build_profiles, extend, extend_localized,
                    instance_from_arrays, mcshane_lower_many, mcshane_upper_many, metric,
                    schedule_for_instance)
from lipext import extension
from lipext.metric import TRIANGLE_RTOL, MetricInstance, _triangle_violators
from lipext.verification import _distance_quartiles, check_localization, run_suite

from conftest import count_starts, dense, fake_cpus
from test_metric import _many_strips, _plant, _triangle_oracle, _violating_rows


def _slow_caller(seconds=0.002):
    """Sleep ``seconds`` on the calling thread only: the threads then take tasks."""
    caller = threading.main_thread()
    if threading.current_thread() is caller:
        time.sleep(seconds)


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
    started, caps = count_starts(monkeypatch), []
    done = metric._pool(lambda cap: caps.append(cap) or list(range(37)), _work_log)
    assert caps == [cpus]   # the loop splits its budget among this many workers
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
    done = metric._pool(lambda cap: range(tasks), _work_log)
    assert len(started) == threads
    assert sorted(t for mine in done for t in mine) == list(range(tasks))


@pytest.mark.parametrize("fail", [(1,), (2,), "all"])
def test_pool_goes_on_when_a_thread_cannot_start(monkeypatch, fail):
    # Four faked CPUs ask for three threads; the workers that run take every task.
    fake_cpus(monkeypatch, 4)
    started = count_starts(monkeypatch, fail)
    done = metric._pool(lambda cap: range(40), _work_log)
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
        metric._pool(lambda cap: range(40), work)
    assert not any(t.is_alive() for t in started)
    assert set(range(6)) <= set(ran) and len(ran) < 40


def test_pool_workers_keep_the_callers_errstate(monkeypatch):
    # numpy's error state is per thread: each worker runs under the caller's.
    fake_cpus(monkeypatch, 4)

    def work(take):
        return [np.float64(1e308) * 10 for _ in take]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        metric._pool(lambda cap: range(8), work)
    with np.errstate(over="ignore"):
        done = metric._pool(lambda cap: range(8), work)
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
    monkeypatch.setattr(metric, "_BLOCK", 12 * len(bank.anchors))   # 3 queries per block at 4
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
    # check_localization and the cone pass, and the blocks of all workers together
    # hold one budget: each is at most 1 / cap of it.
    inst, _ = _tie_instance()
    queries = np.arange(inst.n)[::-1].copy()
    sch = schedule_for_instance(inst, 0.5, queries)
    bank = build_profiles(inst, sch)
    monkeypatch.setattr(metric, "_BLOCK", 40 * len(bank.anchors))
    fake_cpus(monkeypatch, cpus)
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
    assert max(map(len, read)) * len(bank.anchors) * min(cpus, 4) <= metric._BLOCK
    read.clear()
    check_localization(inst, field, bank)
    assert sorted(sum(read, [])) == list(range(inst.n))
    monkeypatch.setattr(extension, "_family", family)
    monkeypatch.setattr(MetricInstance, "distances", logged_distances)
    read.clear()
    upper, lower = mcshane_upper_many(inst, 2.0, queries), mcshane_lower_many(inst, 2.0, queries)
    assert sorted(sum(read, [])) == sorted(2 * list(range(inst.n)))
    monkeypatch.setattr(MetricInstance, "distances", distances)
    dd = dense(inst)[np.ix_(inst.subset, queries)]
    assert np.array_equal(upper, np.min(inst.values[:, None] + 2.0 * dd, axis=0))
    assert np.array_equal(lower, np.max(inst.values[:, None] - 2.0 * dd, axis=0))


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

    def counted_pool(plan, work):
        passes.append(plan)
        return pool(plan, work)
    monkeypatch.setattr(metric, "_upper_blocks", counted_blocks)
    monkeypatch.setattr(metric, "_pool", counted_pool)
    assert _distance_quartiles(inst) == want
    assert len(passes) == 3
    assert sorted(rows) == sorted(3 * list(range(inst.n - 1)))


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
        done = metric._pool(lambda cap: range(3000), lambda take: sum(1 for _ in take))
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
    monkeypatch.setattr(metric, "_BLOCK", 4096)
    inst, _ = _tie_instance()
    run_suite(inst, 0.5)
    assert alive and max(alive) <= 3


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
