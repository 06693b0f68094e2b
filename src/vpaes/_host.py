"""What the host lets this process use, and the one place that forks or
starts threads: a large payload splits between the caller and one forked
helper (in_two_processes, when may_fork()), the spectral test's FFT
batches between threads (in_parts). Threads would not help the payload:
GIL handoffs between its microsecond-sized numpy calls cost more than a
second core gives."""

import gc
import os
import threading
import warnings

from .errors import VpaesError


def available_cpus():
    """The CPUs this process may run on: its affinity mask, else the
    machine's CPU count, and at least one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def may_fork():
    """Whether a forked helper may take half of the work: os.fork exists,
    no other Python thread is alive, and the process may use two CPUs."""
    return (hasattr(os, "fork") and threading.active_count() == 1
            and available_cpus() > 1)


def in_two_processes(run, n):
    """run(0, mid) on the calling thread while a forked helper runs
    run(mid, n). The helper returns only its exit status, so run must write
    to pages the processes share; any status but 0 raises VpaesError."""
    mid = n // 2
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork beside numpy's OpenBLAS thread; the
        # helper's numpy array ops call no BLAS, and it leaves by os._exit
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if not pid:
        try:
            gc.disable()  # a collection could rerun caller finalizers
            run(mid, n)
            os._exit(0)
        finally:
            os._exit(1)
    try:
        run(0, mid)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise VpaesError("payload helper process failed (exit code "
                         f"{os.waitstatus_to_exitcode(status)})")


def in_parts(parts, work):
    """[work(0), .., work(parts - 1)]: part 0 runs on the calling thread and
    the others on helper threads, all joined before this returns, so no
    thread outlives the call. The lowest part's exception is re-raised here.
    The parts run in parallel only where work releases the GIL."""
    results, errors = [None] * parts, {}

    def run(i):
        try:
            results[i] = work(i)
        except BaseException as exc:
            errors[i] = exc

    helpers = []
    try:
        for i in range(1, parts):
            helper = threading.Thread(target=run, args=(i,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results
