"""What the host lets this process use, and the one place that forks or
starts threads: one forked helper (in_two_processes, when may_fork()) takes
half of a large payload or the right part of a cold pi's series, and the
spectral test's FFT batches split between threads (in_parts). Threads would
not help the helper's work: _decimal holds the GIL, and GIL handoffs
between the payload's microsecond-sized numpy calls cost more than a second
core gives. Each helper leaves its caller's CPU (_leave; a forked one is
moved by the caller at once): where the scheduler does not balance load, a
new task waits on its creator's CPU, and the halves take turns on one core.
The caller's mask never changes; without its CPU or another, none moves."""

import gc
import os
import threading
import warnings
from contextlib import suppress

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


def _cpu():
    """The CPU the calling thread runs on, field 39 of its Linux stat, or
    None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave(cpu, pid=0):
    """Move pid (0: the calling thread, on Linux) to the other CPUs of its
    affinity mask, where cpu is known and the mask has others."""
    with suppress(OSError):  # pid gone, or the mask shrank meanwhile: stay
        others = cpu is not None and os.sched_getaffinity(pid) - {cpu}
        if others:
            os.sched_setaffinity(pid, others)


def in_two_processes(mine, theirs):
    """(mine(), theirs()): mine runs on the calling thread while a forked
    helper runs theirs, whose bytes come back through a pipe behind their
    length. The helper is reaped before this returns or re-raises; if it
    exits non-zero or sends other than it announced, VpaesError is raised."""
    read_end, write_end = os.pipe()
    cpu = _cpu()
    with open(read_end, "rb") as pipe, open(write_end, "wb") as sink:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside numpy's OpenBLAS thread;
            # the helpers call no BLAS, and they leave by os._exit
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if not pid:
            try:
                pipe.close()  # so the caller's close alone ends the pipe
                gc.disable()  # a collection could rerun caller finalizers
                _leave(cpu)
                data = theirs()
                sink.write(len(data).to_bytes(8, "big") + data)
                sink.flush()
                os._exit(0)
            finally:
                os._exit(1)
        _leave(cpu, pid)  # before the helper first runs, on this CPU
        sink.close()  # the helper holds the only write end left
        try:
            result, head = mine(), pipe.read(8)
            size = int.from_bytes(head, "big")
            data = pipe.read(size)
            sent = len(head) + len(data) + len(pipe.read())
        finally:
            pipe.close()  # a helper still writing gets EPIPE and exits
            status = os.waitpid(pid, 0)[1]
    if status or sent != 8 + size:
        raise VpaesError(
            f"helper process failed (sent {sent} of {8 + size} bytes, "
            f"exit code {os.waitstatus_to_exitcode(status)})")
    return result, data


def in_parts(parts, work):
    """[work(0), .., work(parts - 1)]: part 0 runs on the calling thread and
    the others on helper threads, all joined before this returns, so no
    thread outlives the call. The lowest part's exception is re-raised here.
    The parts run in parallel only where work releases the GIL."""
    results, errors = [None] * parts, {}
    cpu = _cpu() if parts > 1 else None

    def run(i):
        try:
            if i:
                _leave(cpu)
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
