"""``forking.ahead``: tasks on forked workers, their results in task order."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from layercast import forking


def run(fn, tasks, workers):
    """Every item of ``forking.ahead(fn, tasks, workers)``, in order."""
    with forking.ahead(fn, tasks, workers) as results:
        got = list(results)
    assert multiprocessing.active_children() == []
    return got


def pid_after(task):
    """(task, this process's pid) after a pause that varies by task."""
    time.sleep(0.01 * (task % 3))
    return task, os.getpid()


def fails_at(bad):
    def fn(task):
        if task == bad:
            raise ValueError("boom")
        return task

    return fn


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_task_order(workers):
    got = run(pid_after, range(9), workers)
    assert [task for task, _ in got] == list(range(9))
    assert os.getpid() not in {pid for _, pid in got}
    assert len({pid for _, pid in got}) <= workers


def test_a_free_worker_takes_the_next_task():
    # task 0 waits for task 5, so a worker that took tasks by a fixed
    # turn would hold up its share of 1..5 behind it
    done = multiprocessing.get_context("fork").Event()

    def fn(task):
        if task == 0:
            assert done.wait(30)
        if task == 5:
            done.set()
        return os.getpid()

    pids = run(fn, range(6), 2)
    assert len(set(pids[1:])) == 1 and pids[0] != pids[1]


@pytest.mark.parametrize("workers, want", [
    (1, [0, 1, None, None, None, None]),
    (2, [0, 1, None, 3, 4, 5]),
])
def test_a_raising_task_yields_none(workers, want):
    # the worker that raised stops; another takes the tasks after it
    assert run(fails_at(2), range(6), workers) == want


@pytest.mark.parametrize("workers, want", [
    (1, [0, 1, 2, None, None, None, None]),
    (2, [0, 1, 2, None, 4, 5, 6]),
])
def test_a_killed_worker_yields_none_for_what_no_worker_sends(workers, want):
    def fn(task):
        if task == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return task

    assert run(fn, range(7), workers) == want


def test_workers_ignore_sigint():
    def fn(task):
        os.kill(os.getpid(), signal.SIGINT)
        return task

    assert run(fn, range(4), 2) == [0, 1, 2, 3]


def test_nothing_forks_for_no_worker():
    assert run(pid_after, range(4), 0) == [None] * 4


def test_nothing_forks_with_a_live_thread():
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert run(pid_after, range(4), 2) == [None] * 4
    finally:
        release.set()
        helper.join()


def ahead_in_a_daemonic_worker():
    with forking.ahead(pid_after, range(4), 2) as results:
        return list(results)


def test_nothing_forks_in_a_daemonic_caller():
    # a multiprocessing.Pool's workers are daemonic and may start no child
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(ahead_in_a_daemonic_worker) == [None] * 4
    assert multiprocessing.active_children() == []


def test_workers_are_gone_when_the_caller_raises():
    with pytest.raises(KeyError):
        with forking.ahead(lambda task: time.sleep(0.05) or task, range(100), 2) as results:
            assert next(results) == 0
            raise KeyError
    assert multiprocessing.active_children() == []


def test_workers_are_killed_mid_task():
    # the helper does not wait for a task to end
    start = time.perf_counter()
    with forking.ahead(lambda task: time.sleep(60) or task, range(2), 2):
        pass
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_each_task_runs_once_on_more_workers_than_cores():
    # the workers take tasks from one shared counter; a lost update would
    # run a task twice or skip it
    runs = multiprocessing.get_context("fork").Array("i", 3000)

    def fn(task):
        with runs.get_lock():
            runs[task] += 1
        return task

    assert run(fn, range(3000), 4) == list(range(3000))
    assert list(runs) == [1] * 3000


def test_a_worker_starts_no_thread():
    assert run(lambda task: threading.active_count(), range(4), 2) == [1] * 4
