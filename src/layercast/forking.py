"""The one rule for where the package forks: the ranking pool of a battery
(``harness._ranking_pool``) and the minimum-seed search's worker
(``intervention.minimum_true_seeds``) both ask :func:`fork_context`."""

import os
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
