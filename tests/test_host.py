"""_host.in_two_processes, the one forked helper: its answer comes back
through a pipe behind its length, and every way it can fail reaches the
caller, with the helper reaped (the autouse forks fixture checks that).
Each helper, forked or a thread of _host.in_parts, leaves its caller's CPU
where another is allowed (the caller moves a forked one before its own
half), and the caller's mask stays as it was."""

import os
import threading

import pytest

from vpaes import _host
from vpaes.errors import VpaesError


class Short(bytes):
    """Bytes that announce one byte more than they hold."""

    def __len__(self):
        return super().__len__() + 1


class Long(bytes):
    """Bytes that announce one byte fewer than they hold."""

    def __len__(self):
        return super().__len__() - 1


def test_both_results_and_more_than_a_pipe_holds(forks):
    big = bytes(range(256)) * 4096  # 1 MiB: the helper blocks until read
    assert _host.in_two_processes(lambda: "mine", lambda: big) == (
        "mine", big)
    assert _host.in_two_processes(lambda: None, lambda: b"") == (None, b"")
    assert forks == [1, 1]


def test_theirs_runs_in_the_helper(forks):
    mine, theirs = _host.in_two_processes(
        os.getpid, lambda: b"%d" % os.getpid())
    assert mine == os.getpid() != int(theirs)


def raises():
    raise RuntimeError("helper")


@pytest.mark.parametrize("theirs, code", [
    (lambda: os._exit(1), 1), (lambda: os._exit(3), 3), (raises, 1)],
    ids=["exit-1", "exit-3", "exception"])
def test_helper_exit_code(forks, theirs, code):
    # an exception in the helper leaves it by exit code 1
    with pytest.raises(VpaesError, match=rf"exit code {code}\)$"):
        _host.in_two_processes(lambda: None, theirs)
    assert len(forks) == 1


@pytest.mark.parametrize("theirs, message", [
    (lambda: os._exit(0), "sent 0 of 8 bytes"),
    (lambda: Short(b"abcd"), "sent 12 of 13 bytes"),
    (lambda: Long(b"abcd"), "sent 12 of 11 bytes"),
], ids=["nothing", "too-few", "too-many"])
def test_helper_that_sends_other_than_it_announced(forks, theirs, message):
    # each helper exits 0, so only the length check can catch it
    with pytest.raises(VpaesError, match=rf"{message}, exit code 0\)$"):
        _host.in_two_processes(lambda: None, theirs)
    assert len(forks) == 1


def test_callers_exception_passes_once_the_helper_is_reaped(forks):
    class Failed(Exception):
        pass

    def mine():
        raise Failed

    # the helper is still writing 1 MiB into the pipe: closing the read end
    # ends it with EPIPE, so the reaping cannot wait forever
    with pytest.raises(Failed):
        _host.in_two_processes(mine, lambda: bytes(2**20))
    assert len(forks) == 1


def in_pinned_thread(cpu, work):
    """work() on a new thread whose affinity mask is {cpu} alone; the
    process's other threads keep theirs."""
    out = []

    def run():
        os.sched_setaffinity(0, {cpu})
        out.append(work())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    return out[0]


def test_cpu_is_the_calling_threads():
    for cpu in sorted(os.sched_getaffinity(0)):
        assert in_pinned_thread(cpu, _host._cpu) == cpu


def test_a_lone_cpu_stays():
    # no other CPU allowed: the helper thread keeps the caller's mask
    for cpu in sorted(os.sched_getaffinity(0)):
        masks = in_pinned_thread(cpu, lambda: _host.in_parts(
            2, lambda i: os.sched_getaffinity(0)))
        assert masks == [{cpu}, {cpu}]


read_cpu = _host._cpu  # the reader itself, whatever a test patches in


def placement():
    """The calling thread's affinity mask and CPU, as text."""
    return b"%r %d" % (sorted(os.sched_getaffinity(0)), read_cpu())


two_cpus = pytest.mark.skipif(_host.available_cpus() < 2,
                              reason="needs two available CPUs")


@pytest.fixture
def seen(monkeypatch):
    """The CPUs _host read as its caller's, in order."""
    cpus = []
    monkeypatch.setattr(_host, "_cpu",
                        lambda: cpus.append(read_cpu()) or cpus[-1])
    return cpus


@two_cpus
def test_forked_helper_leaves_the_callers_cpu(forks, seen):
    mask = os.sched_getaffinity(0)
    _, theirs = _host.in_two_processes(lambda: None, placement)
    others = sorted(mask - set(seen))
    assert len(seen) == 1 and theirs.startswith(b"%r " % others)
    assert int(theirs.split()[-1]) in others
    assert os.sched_getaffinity(0) == mask


@two_cpus
def test_caller_moves_its_helper_before_its_own_half(forks, seen,
                                                     monkeypatch):
    # left to itself, a helper placed on the caller's CPU would wait there
    # for a time slice before it could move; the move is the caller's first
    moves, set_mask = [], os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: (
        moves.append((pid, mask)), set_mask(pid, mask))[1])
    before_mine, pid = _host.in_two_processes(
        lambda: list(moves), lambda: b"%d" % os.getpid())
    others = os.sched_getaffinity(0) - set(seen)
    assert before_mine == moves == [(int(pid), others)]


@two_cpus
def test_helper_threads_leave_the_callers_cpu(seen):
    mask = os.sched_getaffinity(0)
    parts = _host.in_parts(3, lambda i: placement())
    others = sorted(mask - set(seen))
    assert len(seen) == 1 and parts[0].startswith(b"%r " % sorted(mask))
    for part in parts[1:]:
        assert part.startswith(b"%r " % others)
        assert int(part.split()[-1]) in others
    assert os.sched_getaffinity(0) == mask


@two_cpus
def test_unread_cpu_moves_nothing(forks, monkeypatch):
    monkeypatch.setattr(_host, "_cpu", lambda: None)
    mask = os.sched_getaffinity(0)

    def work(i=0):
        return b"%r" % sorted(os.sched_getaffinity(0))

    assert _host.in_two_processes(lambda: "mine", work) == (
        "mine", b"%r" % sorted(mask))
    assert _host.in_parts(3, work) == [b"%r" % sorted(mask)] * 3
    assert os.sched_getaffinity(0) == mask
