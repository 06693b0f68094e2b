"""What the host lets this process use."""

import os


def available_cpus():
    """The CPUs this process may run on: its affinity mask, else the
    machine's CPU count, and at least one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1
