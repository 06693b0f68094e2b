"""Randomness battery for plaintext and cipher rasters.

Per colour channel: Shannon entropy of the 256-bin tone histogram,
adjacent-pixel correlation in three directions, the spectral (discrete
Fourier) test on the channel bit string, and a chi-square goodness-of-fit
test of the tone histogram against uniformity (255 degrees of freedom,
normal-approximated tail with mu = 255, sigma = 22.5831). The chi-square
statistic doubles as a plaintext difficulty score: the higher it is, the
less random the source image, and the more the per-block permutations
matter.

Samplers are seeded, so every reported number is reproducible from
(input bytes, seed).
"""

import math
from functools import lru_cache

import numpy as np

from . import _host
from .errors import DomainError, PreconditionError

_SQRT2 = math.sqrt(2.0)

CHI_MEAN = 255.0
CHI_SIGMA = 22.5831  # sqrt(2*255), kept at the reporting precision
DEFAULT_SAMPLES = 3000
# The most pixel pairs a correlation samples, 349 times the paper's 3,000:
# a sample costs 42 bytes traced, so 2^20 take 42 MiB and about 0.1 s, and
# a count far above it would only end in a MemoryError or the OOM killer.
MAX_SAMPLES = 1 << 20
DIRECTIONS = ("horizontal", "vertical", "diagonal")
_STEPS = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}
_CHANNEL_INDEX = {"red": 0, "green": 1, "blue": 2, "gray": 0}
_FFT_BLOCK = 1 << 14  # complex entries per second-stage batch: 256 KiB
# The array between the spectral kernel's stages is held in row blocks of
# _Z_BATCHES second-stage batches (4 MiB at 2^21 bits), which malloc serves
# from heap space that earlier frees left resident; one n-sized array would
# map fresh pages. The last call's blocks are kept for the next call of that
# length up to _KEEP_BYTES, malloc's largest mmap threshold: freed, they go
# back to the system, and refaulting them cost a third of a 2^21-bit test.
_Z_BATCHES = 16
_KEEP_BYTES = 1 << 25
_spare = {}  # bit count -> the blocks of the last call of that length
# Each part gets at least 2^18 bits: a second thread paid from 2^19 bits on.
# Medians of 30 alternated calls, one part against two, the helper thread on
# the other CPU, two runs, 2-core x86-64: 2.8-4.2 against 2.9-4.2 ms at 2^18
# bits, 4.4-6.1 against 4.5-4.9 ms at 3 * 2^17 (two faster in 14, 29 of 30),
# 6.1-8.6 against 5.5-6.1 ms at 2^19 (28 and 30 of 30) and 28-35 against
# 18-20 ms at 2^21, a 512x512 channel. Below 2^18 two parts were slower still.
_PART_BITS = 1 << 18
# A second thread needs n1 >= 16 too. Two parts against one (as above, n = n1
# times a prime near 2^19 bits) took 1.08-1.10 times as long with n1 = 4,
# 0.94-1.08 with n1 = 8 (two faster in 23, 8 of 30) and 0.82-0.90 with n1 = 16.
_PART_N1 = 16


def channel_names(channels):
    return ("red", "green", "blue") if channels == 3 else ("gray",)


def phi(z):
    """Cumulative standard normal distribution."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def erfc(z):
    """Complementary error function; erfc(z/sqrt(2)) = 2*(1 - phi(z))."""
    return math.erfc(z)


def _tested(test, channel, statistic, p_value, alpha, **extras):
    """The report entry of a hypothesis test: "accepted" if p >= alpha,
    else "rejected"."""
    return {"test": test, "channel": channel, "statistic": statistic,
            "p_value": p_value, "alpha": alpha,
            "decision": "accepted" if p_value >= alpha else "rejected",
            **extras}


def _total(bins):
    """The count of a tone histogram, which must hold 256 counts and not
    be empty."""
    if np.shape(bins) != (256,):
        raise DomainError(f"need 256 bins, got shape {np.shape(bins)}")
    total = int(bins.sum())
    if total <= 0:
        raise DomainError("an empty histogram has no entropy or chi-square")
    return total


def _plane(img, channel):
    if channel not in _CHANNEL_INDEX:
        raise DomainError(f"unknown channel {channel!r}")
    if (channel == "gray") != (img.channels == 1):
        raise DomainError(
            f"channel {channel!r} does not exist in a "
            f"{img.channels}-channel image")
    arr = np.frombuffer(img.data, dtype=np.uint8).reshape(
        img.height, img.width, img.channels)
    return arr[:, :, _CHANNEL_INDEX[channel]]


def tone_histogram(img, channel):
    """The channel's 256 tone counts."""
    return np.bincount(_plane(img, channel).ravel(), minlength=256)


def channel_bits(img, channel):
    """The channel's bytes as a flat 0/1 array, row-major, MSB first."""
    return np.unpackbits(np.ascontiguousarray(_plane(img, channel)))


def sample_adjacent_pairs(img, direction, channel, count=DEFAULT_SAMPLES,
                          seed=0):
    """Seeded uniform sample of `count` adjacent pixel pairs, as the
    arrays (xs, ys) of their byte values.

    Base positions are drawn so the neighbour (one step right, down, or
    down-right) always exists; diagonal sampling therefore never starts in
    the last row or column.
    """
    if direction not in _STEPS:
        raise DomainError(f"unknown direction {direction!r}")
    if not 1 <= count <= MAX_SAMPLES:
        raise DomainError(
            f"count must be in 1..{MAX_SAMPLES}, got {count}")
    dr, dc = _STEPS[direction]
    plane = _plane(img, channel)
    max_row = img.height - dr
    max_col = img.width - dc
    if max_row < 1 or max_col < 1:
        raise PreconditionError(
            f"{img.width}x{img.height} image has no {direction} neighbours")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, max_row, size=count)
    cols = rng.integers(0, max_col, size=count)
    return plane[rows, cols], plane[rows + dr, cols + dc]


def correlation(pairs):
    """Sample Pearson correlation of the pairs (xs, ys), 1/M normalised."""
    xs, ys = pairs
    if len(xs) < 2:
        raise DomainError("correlation needs at least 2 pairs")
    x = xs.astype(np.float64)
    y = ys.astype(np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(np.mean(dx * dx))
    var_y = float(np.mean(dy * dy))
    if var_x == 0.0 or var_y == 0.0:
        raise PreconditionError(
            "correlation undefined: a coordinate has zero variance")
    r = float(np.mean(dx * dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def entropy(bins):
    """Shannon entropy of the tone distribution, in [0, 8] bits."""
    total = _total(bins)
    p = bins[bins > 0].astype(np.float64) / total
    return float(0.0 - np.sum(p * np.log2(p)))  # +0.0, not -0.0, for one tone


def _part_count(n, n1):
    """How many threads share the spectral kernel for n = n1*n2 bits: two
    when each part gets _PART_BITS or more, n1 >= _PART_N1 and this process
    may run on two CPUs, else one. Two is the only count measured, and each
    part holds about 0.75 MiB of batch temporaries for a 512x512 channel."""
    return 2 if (n1 >= _PART_N1 and n >= 2 * _PART_BITS
                 and _host.available_cpus() > 1) else 1


@lru_cache(maxsize=1)  # the three channels of an image share a length
def _twiddles(n):
    """_low_peaks' (n1, s, coarse, fine) for n bits, the tables read-only:
    n1 is n's largest divisor <= sqrt(n), and at j2 = a*s + b the twiddle
    w_n^(j2*k1) is coarse[a, k1] * fine[k1, b], exponents reduced mod n."""
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    n2 = n // n1
    k1 = np.arange(n1 // 2 + 1)
    s = math.isqrt(n2 - 1) + 1
    turn = -2j * math.pi / n
    coarse = np.exp(np.arange(0, n2, s)[:, None] * k1 % n * turn)
    fine = np.exp(k1[:, None] * np.arange(s) % n * turn)
    coarse.flags.writeable = fine.flags.writeable = False
    return n1, s, coarse, fine


def _low_peaks(bits, threshold):
    """How many of |X_1| .. |X_{n/2-1}| lie below `threshold`, X the DFT of
    the +/-1 sequence of `bits` (even length n), in float64.

    Bailey's four-step DFT in cache-sized batches instead of one n-point
    transform. With n = n1*n2 (_twiddles), j = j1*n2 + j2 and k = k1 +
    n1*k2, X_k is the length-n2 DFT over j2 of w_n^(j2*k1) times the
    length-n1 DFT over j1, down the columns of the bit rows. The real first
    stage gives rows k1 = 0..n1/2 only, which is enough: |X_k| = |X_{n-k}|,
    and a row 0 < k1 < n1/2 holds one of each such pair, while rows 0 and
    n1/2 hold both, so there only 1 <= k < n/2 counts. The array between
    the stages, 16*n2*(n1//2 + 1) bytes, is the only n-sized one; it is
    held in row blocks (_Z_BATCHES).

    Each stage's batches are dealt out to _part_count(n, n1) parts
    (_host.in_parts; numpy's FFTs release the GIL): first-stage batches
    write disjoint column blocks of that array, and second-stage batches
    each return an integer count, so the parts change no number.
    """
    n = len(bits)
    n1, s, coarse, fine = _twiddles(n)
    n2 = n // n1
    rows = bits.reshape(n1, n2)
    half = n1 // 2 + 1  # first-stage rows k1 = 0..n1/2
    step = max(1, _FFT_BLOCK // n2)
    tall = _Z_BATCHES * step
    tops = range(0, half, tall)
    zs = _spare.pop(n, None) or [  # z[k1, j2] is zs[k1 // tall][k1 % tall, j2]
        np.empty((min(tall, half - r), n2), complex) for r in tops]
    parts = _part_count(n, n1)
    # one buffer per part, allocated on the calling thread rather than in a
    # helper's malloc arena: a batch's +/-1 values, then its twiddles, so a
    # part holds two batch-sized arrays, not three
    buffers = [np.empty((half, s), complex) for _ in range(parts)]

    def first(part):
        # the rfft lanes are the columns, which numpy buffers: no transpose
        buf = buffers[part]
        for a in range(part, len(coarse), parts):
            lo = a * s
            m = min(s, n2 - lo)
            x = buf.reshape(-1).view(float)[:n1 * m].reshape(n1, m)
            np.multiply(rows[:, lo:lo + m], 2.0, out=x)
            x -= 1.0
            y = np.fft.rfft(x, axis=0)
            y *= np.multiply(coarse[a, :, None], fine[:, :m], out=buf[:, :m])
            for r, zr in zip(tops, zs):
                zr[:, lo:lo + m] = y[r:r + tall]
            del y  # before the next batch's rfft allocates its own

    _host.in_parts(parts, first)
    edges = [0, n1 // 2] if n1 % 2 == 0 else [0]
    k = np.array(edges)[:, None] + n1 * np.arange(n2)
    mag = np.abs(np.fft.fft([zs[e // tall][e % tall] for e in edges]))
    count = np.count_nonzero((mag < threshold) & (k >= 1) & (2 * k < n))
    # second-stage batches: up to step rows of a block, of k1 = 1..(n1-1)//2
    inner = [zr[max(a, 1 - r):min(a + step, (n1 + 1) // 2 - r)]
             for r, zr in zip(tops, zs) for a in range(0, len(zr), step)]

    def second(part):
        return sum(np.count_nonzero(np.abs(np.fft.fft(v)) < threshold)
                   for v in inner[part::parts])

    count += sum(_host.in_parts(parts, second))
    if 16 * half * n2 <= _KEEP_BYTES:
        _spare.clear()
        _spare[n] = zs
    return int(count)


def spectral_dft_test(bits, alpha=0.01, channel=""):
    """Spectral test: too few (or too many) low-magnitude DFT peaks of the
    +/-1 sequence betray periodic structure.

    Odd-length inputs drop the final bit. The peak count N1 over
    j = 1..n/2-1 is compared with the 95% expectation N0 = 0.95*n/2 via
    d = (N1-N0)/sqrt(n*0.95*0.05/4) and P = erfc(|d|/sqrt(2)).
    """
    bits = np.asarray(bits)
    if bits.dtype != np.uint8:  # the cast would pass 256 or 0.7 as a 0
        bits = np.where((bits == 0) | (bits == 1), bits, 2).astype(np.uint8)
    if bits.size and bits.max() > 1:
        raise DomainError("bit sequence may only hold 0s and 1s")
    n = len(bits)
    if n < 1000:
        raise PreconditionError(
            f"spectral test needs at least 1000 bits, got {n}")
    if n % 2:
        bits = bits[:-1]
        n -= 1
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n1 = _low_peaks(bits, threshold)
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p_value = erfc(abs(d) / _SQRT2)
    return _tested("spectral_dft", channel, d, p_value, alpha,
                   n=n, n0=n0, n1=n1, peak_threshold=threshold)


def chi_square_statistic(bins):
    """Tone-histogram deviation from uniform: sum (o_i - e_i)^2 / e_i."""
    e = _total(bins) / 256.0
    o = bins.astype(np.float64)
    return float(np.sum((o - e) ** 2) / e)


def chi_square_p_value(chi2):
    """Upper tail of the N(255, 22.5831^2) approximation at chi2.

    Equals 1 - phi((chi2 - 255)/22.5831), evaluated through erfc so deep
    tails keep precision.
    """
    z = (chi2 - CHI_MEAN) / CHI_SIGMA
    return 0.5 * erfc(z / _SQRT2)


def chi_square_exact_tail(chi2):
    """Upper tail of the chi-square distribution with 255 degrees of freedom.

    For odd degrees of freedom the tail is a finite sum (Abramowitz & Stegun
    26.4): with h = chi2/2, Q = erfc(sqrt(h)) + sum over j = 0..126 of
    h^(j+1/2) e^-h / Gamma(j+3/2), each term evaluated in logarithms.
    Where Q is 1 to double precision, rounding can lift the sum up to about
    3e-14 above 1, so it is capped there.
    """
    if chi2 <= 0:
        return 1.0
    h = chi2 / 2.0
    log_h = math.log(h)
    return min(1.0, erfc(math.sqrt(h)) + sum(
        math.exp((j + 0.5) * log_h - h - math.lgamma(j + 1.5))
        for j in range(127)))


def chi_square_tone_test(bins, alpha=0.01, channel=""):
    """Goodness-of-fit of the tone histogram against uniformity.

    P-value comes from the normal approximation (chi_square_p_value); the
    exact chi-square-distribution tail is reported alongside, clearly
    labelled, for reference.
    """
    total = int(bins.sum())
    if total < 2560:
        raise PreconditionError(
            f"chi-square tone test needs >= 2560 samples (10 per bin), "
            f"got {total}")
    chi2 = chi_square_statistic(bins)
    return _tested("chi_square_tone", channel, chi2, chi_square_p_value(chi2),
                   alpha, p_value_exact_chi2=chi_square_exact_tail(chi2))


def plaintext_selection_score(img):
    """Per-channel chi-square of the plaintext tone histogram.

    A difficulty score, not a hypothesis test: images scoring high (say
    above 10^7) have strongly ordered tones and are the hard encryption
    cases worth validating against.
    """
    return {
        ch: chi_square_statistic(tone_histogram(img, ch))
        for ch in channel_names(img.channels)
    }


def sensitivity_correlation(c1, c2, count=DEFAULT_SAMPLES, seed=0):
    """Per-channel correlation of two ciphertexts at identical positions.

    Meant for containers produced from one image under two keys; values
    near zero mean the key change decorrelated every channel.
    """
    if (c1.width, c1.height, c1.channels) != (
            c2.width, c2.height, c2.channels):
        raise DomainError(
            f"container shapes differ: {c1.width}x{c1.height}x{c1.channels} "
            f"vs {c2.width}x{c2.height}x{c2.channels}")
    if not 2 <= count <= MAX_SAMPLES:
        raise DomainError(
            f"count must be in 2..{MAX_SAMPLES}, got {count}")
    pixels = c1.width * c1.height
    channels = c1.channels
    a = np.frombuffer(c1.payload, dtype=np.uint8)
    b = np.frombuffer(c2.payload, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, pixels, size=count)
    out = {}
    for idx, ch in enumerate(channel_names(channels)):
        flat = positions * channels + idx
        out[ch] = correlation((a[flat], b[flat]))
    return out
