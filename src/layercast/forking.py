"""The one place the package forks, :func:`ahead`, and its one rule,
:func:`fork_context`: a battery's ranking (``harness``) and the minimum-seed
search's even k (``intervention.minimum_true_seeds``) both run there."""

import contextlib
import os
import signal
import threading


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    # not every platform has sched_getaffinity
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_context(processes: int):
    """The ``multiprocessing`` fork context when ``processes`` may run, else None.

    A fork is worth it only for more than one process, and safe only while
    no other thread is live: the child would inherit the locks such a thread
    holds.  The platform must also offer the fork start method (Windows does
    not), and this process must not be a daemonic ``multiprocessing`` worker
    (such as a ``multiprocessing.Pool``'s), which may start no children.
    ``multiprocessing`` (about 20 ms) is imported only when the first two
    hold, so ``import layercast`` never pays for it.
    """
    if processes <= 1 or threading.active_count() != 1:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return None
    return multiprocessing.get_context("fork")


def _take(taken) -> int:
    """The next task no process has taken, from the shared counter ``taken``."""
    with taken.get_lock():
        j = taken.value
        taken.value = j + 1
    return j


def _work(fn, tasks, taken, own, ends) -> None:
    """A worker: while tasks are left, take the next, j, and send ``(j,
    fn(tasks[j]))`` on ``own``; if ``fn`` raised, send ``(j, None)`` and stop."""
    for end in ends:
        if end is not own:
            end.close()  # so a caller that dies leaves ``own`` broken, not held open
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops it
    try:
        while (j := _take(taken)) < len(tasks):
            try:
                result = fn(tasks[j])
            except Exception:
                result = None  # the caller does task j itself
            own.send((j, result))
            if result is None:
                return
    except OSError:  # the caller is gone
        return


def _in_order(reads, tasks, taken, here, bound: int):
    """The results of ``tasks`` in order, None for one no worker sent before
    every worker was gone.

    With ``here``, this process takes a share: while it waits for task j,
    and holds fewer than ``bound`` results it made ahead of j, it takes the
    next untaken task i and keeps ``here(tasks[i])`` as i's result, or None
    if that raised.
    """
    from multiprocessing.connection import wait

    got = {}
    mine = set()  # tasks this process did, not yet yielded
    left = here is not None  # whether this process may find an untaken task
    for j in range(len(tasks)):
        while j not in got:
            may_take = left and len(mine) < bound
            if not reads and not may_take:
                break
            for r in wait(reads, timeout=0 if may_take else None):
                try:
                    i, result = r.recv()
                except (EOFError, OSError):  # the worker is gone
                    reads.remove(r)
                else:
                    got[i] = result
            if j in got or not may_take:
                continue
            i = _take(taken)
            if i >= len(tasks):
                left = False
                continue
            try:
                got[i] = here(tasks[i])
            except Exception:
                got[i] = None  # the caller redoes task i in order, and meets it there
            mine.add(i)
        mine.discard(j)
        yield got.pop(j, None)


@contextlib.contextmanager
def ahead(fn, tasks, workers: int, here=None):
    """An iterator over ``fn(task)`` for each of ``tasks``, in task order,
    computed ahead on ``workers`` forked processes where :func:`fork_context`
    allows ``workers + 1`` processes (the workers and this one).

    Each free worker takes the next task, so a slow task holds up no other.
    Given ``here``, this process is one more: while it waits for the next
    item it takes the next task no worker has taken, and that task's item
    is ``here(task)``.  It holds at most ``workers`` such items ahead of the
    one it waits for, and takes no task where nothing was forked.

    An item is None where this process must do that task itself: nothing
    was forked, ``fn`` or ``here`` raised there (a worker then stops), or
    every worker is gone without sending it; so neither may return None.
    On exit every worker is killed, even mid-task (it holds nothing to
    release), and joined.
    """
    tasks = list(tasks)
    context = fork_context(workers + 1)
    if context is None:
        yield iter([None] * len(tasks))
        return
    taken = context.Value("q", 0)
    pipes = [context.Pipe(duplex=False) for _ in range(workers)]  # (read, write) ends
    ends = [end for pipe in pipes for end in pipe]
    started = []
    try:
        for _, write in pipes:
            worker = context.Process(target=_work, args=(fn, tasks, taken, write, ends), daemon=True)
            worker.start()
            started.append(worker)
        for _, write in pipes:
            write.close()  # so a gone worker leaves its read end at EOF
        yield _in_order([read for read, _ in pipes], tasks, taken, here, workers)
    finally:
        for worker in started:
            worker.kill()
            worker.join()
            worker.close()
        for end in ends:
            end.close()
