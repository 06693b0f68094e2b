"""_host.in_two_processes, the one forked helper: its answer comes back
through a pipe behind its length, and every way it can fail reaches the
caller, with the helper reaped (the autouse forks fixture checks that)."""

import os

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
