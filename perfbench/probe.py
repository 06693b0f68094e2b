"""Host-speed probe: fixed pieces of work, timed next to every op.

On a shared host the same op can take 1.2-1.8x longer for minutes at a time
while CPU time still equals wall time (the neighbours compete for caches and
memory, not for the core), and different kinds of work slow down by
different amounts. Timing fixed work of the same kinds right before and
after an op measures how slow the host is for that op at that moment;
run.py divides the op's wall time by it. The probe never calls vpaes, so a
change to the package cannot move it.

Each part is a kind of work vpaes does and takes about 10-25 ms on the
reference host. Its median of ``REPS`` runs is divided by its time there
when quiet (``PARTS``), giving that part's slowdown; a workload's factor is
the weighted mean of the slowdowns of the parts that tracked its ops best
(``Workload.PROBE_WEIGHTS``; README.md gives the evidence). On the quiet
reference host the factor is 1, so normalised timings read as seconds at
that host's speed.

The arrays are built on the first call and kept; child.py reads peak RSS
before that, so they never count in ``peak_rss_MiB``.
"""

import statistics
import time

import numpy as np

REPS = 3
# How far a timing follows the factor: it is divided by factor ** this.
# Full division (1.0) over-corrected: the probe's short parts catch the
# peaks of contention that a seconds-long op averages out. Recomputed from
# the run medians of two ten-seed sets of all workloads, 0.7 gave op_s
# spreads of 0.06-0.10, 1.0 gave 0.07-0.21 and raw times 0.16-0.33.
SENSITIVITY = 0.7
BLOCKS = 49152
WIDTH = 128

_arrays = {}


def _interpreter(a):
    """Bytecode dispatch, like the CLI, the BMP decoder and the checks."""
    x = 0
    for i in range(130_000):
        x += (i * i) % 7
    return x


def _sort(a):
    """Row-wise argsort of small rows, like the inverse permutation."""
    return np.argsort(a["rows"], axis=1)


def _gather(a):
    """Random column gathers over a 6 MiB table, like the table-lookup
    rounds and bit permutation."""
    rows = np.arange(BLOCKS)
    total = 0
    for column in a["index"]:
        total += int(a["table"][rows, column][7])
        total += int(a["table"][:, 5].sum())
    return total


def _select(a):
    """Per-row selection steps over a 49152 x 128 table, choices read down a
    48 MiB array: the memory pattern of permutation derivation."""
    table = a["start"].copy()
    rows = np.arange(BLOCKS)
    out = np.empty((BLOCKS, 4), dtype=np.uint8)
    for i in range(4):
        c = a["choices"][:, i]
        out[:, i] = table[rows, c]
        table[rows, c] = table[:, WIDTH - 1 - i]
    return out


def _fft(a):
    """A 2^20-point real FFT, like the spectral test."""
    return np.fft.rfft(a["bits"])


# name -> (function, seconds on the reference host, a 2-vCPU KVM Intel Xeon
# with CPython 3.11 and numpy 2, when quiet)
PARTS = {
    "interpreter": (_interpreter, 0.0107),
    "sort": (_sort, 0.0098),
    "gather": (_gather, 0.0102),
    "select": (_select, 0.0128),
    "fft": (_fft, 0.0221),
}


def _build():
    rng = np.random.default_rng(0)
    _arrays.update(
        rows=rng.integers(0, 256, (2048, WIDTH), dtype=np.uint8),
        table=rng.integers(0, WIDTH, (BLOCKS, WIDTH), dtype=np.uint8),
        index=rng.integers(0, WIDTH, (16, BLOCKS)),
        start=np.tile(np.arange(WIDTH, dtype=np.uint8), (BLOCKS, 1)),
        choices=rng.integers(0, WIDTH, (BLOCKS, WIDTH)).astype(np.intp),
        bits=rng.integers(0, 2, 1 << 20).astype(np.float64))


def probe(weights):
    """How many times slower than the quiet reference host this host runs
    work mixed as ``weights`` (part name -> share, summing to 1) now."""
    if not _arrays:
        _build()
    factor = 0.0
    for name, weight in weights.items():
        fn, ref_s = PARTS[name]
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn(_arrays)
            times.append(time.perf_counter() - t0)
        factor += weight * statistics.median(times) / ref_s
    return factor
