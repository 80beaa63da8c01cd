"""``forking.ahead``: tasks on forked workers, their results in task order."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from layercast import forking


def run(fn, tasks, workers, here=None):
    """Every item of ``forking.ahead(fn, tasks, workers, here)``, in order."""
    with forking.ahead(fn, tasks, workers, here) as results:
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


# -- the calling process's share: ``here`` -------------------------------------


def logged(log):
    """A task function that appends ``task pid`` to ``log`` and returns
    ``(task, pid)`` after a pause that varies by task."""

    def fn(task):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{task} {os.getpid()}\n")
        return pid_after(task)

    return fn


def stalling(started, seconds):
    """A task function whose first task signals ``started`` and stalls."""

    def fn(task):
        if not started.is_set():
            started.set()
            time.sleep(seconds)
        return task

    return fn


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_with_here_results_in_task_order(workers, tmp_path):
    log = tmp_path / "log"
    got = run(logged(log), range(30), workers, here=logged(log))
    assert [task for task, _ in got] == list(range(30))
    # each task ran once, in this process or a worker, and its item is the
    # result of that run
    runs = [tuple(map(int, line.split())) for line in log.read_text(encoding="ascii").splitlines()]
    assert sorted(runs) == sorted(got)
    assert [task for task, _ in sorted(runs)] == list(range(30))
    assert len({pid for _, pid in runs} - {os.getpid()}) <= workers


@pytest.mark.parametrize("workers", [1, 2])
def test_this_process_holds_at_most_one_result_per_worker_ahead(workers):
    # a worker stalls on its first task; while this process waits for it,
    # it takes later tasks until it holds one result per worker
    started = multiprocessing.get_context("fork").Event()
    made, yielded, held = [], [], []

    def here(task):
        made.append(task)
        held.append(len(set(made) - set(yielded)))
        time.sleep(0.01)
        return task

    def fn(task):
        time.sleep(0.01)
        return stall(task)

    stall = stalling(started, 0.5)
    with forking.ahead(fn, range(40), workers, here) as results:
        assert started.wait(30)
        for item in results:
            yielded.append(item)
    assert yielded == list(range(40))
    assert max(held) == workers
    assert multiprocessing.active_children() == []


def test_a_task_that_raises_here_yields_none_in_order():
    # the one worker stalls on task 0, so this process takes task 1; that
    # raises, and its item is None, so the caller does task 1 in order
    started = multiprocessing.get_context("fork").Event()

    def here(task):
        if task == 1:
            raise ValueError("boom")
        return task

    with forking.ahead(stalling(started, 0.3), range(6), 1, here) as results:
        assert started.wait(30)
        assert list(results) == [0, None, 2, 3, 4, 5]
    assert multiprocessing.active_children() == []


def test_a_caller_without_here_takes_no_task():
    # as the minimum-seed search: this process waits for the stalled
    # worker and runs nothing of its own
    started = multiprocessing.get_context("fork").Event()
    stall = stalling(started, 0.3)
    with forking.ahead(lambda task: (stall(task), os.getpid()), range(4), 1) as results:
        assert started.wait(30)
        got = list(results)
    assert [task for task, _ in got] == [0, 1, 2, 3]
    assert os.getpid() not in {pid for _, pid in got}
    assert multiprocessing.active_children() == []


def test_nothing_forked_leaves_here_unused():
    # a serial caller does every task itself, in order, where it needs it
    assert run(pid_after, range(4), 0, here=pid_after) == [None] * 4
