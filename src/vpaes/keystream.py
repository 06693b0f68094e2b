"""Keystream: the byte expansion of frac(l*pi), where l is the key as an
integer.

Every encryption consumes a prefix of this stream; block j reads the sliding
127-byte window starting at byte j, so a payload of B blocks needs B + 126
bytes in total.

pi is computed in-process as a binary fixed-point integer from the
Chudnovsky series (Chudnovsky & Chudnovsky, 1988)

    1/pi = 12 * sum_k (-1)^k (6k)! (A + B k) / ((3k)! (k!)^3 C^(3k+3/2)),
    A = 13591409, B = 545140134, C = 640320.

Binary splitting (Haible & Papanikolaou, 1998) sums its first N terms
exactly as T/Q, so pi = 426880 sqrt(10005) Q / T. The two big operations
after the split are Newton iterations on plain int multiplication (Brent &
Zimmermann, *Modern Computer Arithmetic*, §1.5.2 and §3.4-3.5): `_div`
multiplies by a Newton reciprocal, and `_sqrtrem` takes one Newton step per
level from the root of the top half (Karatsuba square root). Each ends in an
exact remainder correction, so both are true floors, equal to `//` and
`math.isqrt`, whose CPython versions are quadratic in the operand size.

`_pi_fixed(p)` returns floor(426880 * s * Q' / T') with s = isqrt(10005 *
4^p), N = p // 47 + 2 terms, and Q', T' the top bits of Q and T. Its
distance from pi * 2^p is below 1.04 ulp:
  - series tail: the terms alternate and shrink, so the tail is below the
    first omitted term, at most (A + B N) * (1728 / C^3)^N < (A + B N) *
    2^(-47 N) <= (A + B N) * 2^-(p + 48). The partial sums stay above
    A - 1, so this moves pi * 2^p by less than 4 (1 + 41 N) 2^-48, below
    2^-10 ulp for N < 2^30;
  - square root: s is at most 1 below sqrt(10005) 2^p, which moves the
    result by at most 426880 / (A - 1), pi / sqrt(10005) to six digits:
    < 0.032 ulp;
  - truncating Q and T to at least p + 64 bits changes Q / T by a relative
    2^-(p + 62), below 2^-60 ulp;
  - the floor adds less than 1 ulp.
pi does not depend on the key, so the most precise pi computed so far is
cached; a request at the same or a smaller precision is that value shifted
right, and a larger one recomputes and replaces it. Nested floors compose,
so any value served is floor(_pi_fixed(P) / 2^j) for some j >= 0: at most
1.04 / 2 + 1 < 1.53 ulp off when j >= 1, which is the bound PI_ERROR_ULPS
states. The cache is filled at the precision a full 128-bit key needs, so
every key at the same stream length is served from it;
`pi_fraction_bytes.cache_clear()` empties it together with the stream cache.

All emitted bytes are exact: the working precision carries ``bitlen(l) +
64`` guard bits below the requested bytes, and the extraction step refuses
to emit unless the error interval of l * pi lands strictly inside one
byte-window value (on the astronomically rare carry ambiguity it doubles the
guard bits and recomputes).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .permgen import WINDOW_BYTES

KEY_BYTES = 16
GUARD_BITS = 64

# Any pi served at scale 2^prec is within 1.53 ulp of pi * 2^prec (module
# docstring).
PI_ERROR_ULPS = 2

# Operands whose quotient or root has at most this many bits go to CPython's
# `//` and math.isqrt; above it the Newton kernels are faster.
_NEWTON_BITS = 1 << 14
# Extra bits the Newton reciprocal carries beyond the precision it returns.
_SLACK = 32

# Chudnovsky constants: A, B and C^3 / 24.
_A, _B, _C3_24 = 13591409, 545140134, 640320 ** 3 // 24


@dataclass(frozen=True)
class Key128:
    """A 16-byte AES key, byte 0 most significant."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != KEY_BYTES:
            raise DomainError(
                f"key must hold {KEY_BYTES} bytes, got {len(self.data)}")


@dataclass(frozen=True)
class FractionStream:
    """The first `count` bytes after the binary point of frac(l*pi)."""

    data: bytes

    @property
    def count(self):
        return len(self.data)


def key_to_integer(k):
    """The key bytes read as one big-endian 128-bit integer."""
    return int.from_bytes(k.data, "big")


def required_byte_count(blocks):
    """Smallest stream length whose last window (block index blocks-1)
    is in range: (blocks - 1) + 127 bytes."""
    if blocks < 1:
        raise DomainError(f"blocks must be positive, got {blocks}")
    return blocks + WINDOW_BYTES - 1


def window(stream, j):
    """Bytes j..j+126 of the stream: the digit window for block j."""
    if j < 0 or j + WINDOW_BYTES > stream.count:
        raise DomainError(
            f"window {j} out of range for stream of {stream.count} bytes")
    return stream.data[j:j + WINDOW_BYTES]


def _reciprocal(d, k):
    """About 2^(n + k) / d for n = d.bit_length(), within a few units.

    Only the top k + _SLACK bits of d matter. Above _NEWTON_BITS, one Newton
    step x += x (2^(n+k) - d x) / 2^(n+k) doubles the correct bits of the
    reciprocal at half the precision; its residual is small, so both
    factors of the correction are truncated to about k/2 bits.
    """
    n = d.bit_length()
    if n > k + _SLACK:
        d >>= n - k - _SLACK
        n = k + _SLACK
    if k <= _NEWTON_BITS:
        return (1 << (n + k)) // d
    h = k // 2 + _SLACK
    y = _reciprocal(d, h)
    residual = (1 << (n + h)) - d * y
    ys, rs = 2 * h - k - 5, max(0, n + h - k - 4)
    step = ((y >> ys) * (residual >> rs)) >> (n + 2 * h - k - ys - rs)
    return (y << (k - h)) + step


def _div(num, d):
    """floor(num / d) for num >= 0 and d > 0, equal to num // d.

    The quotient is the top bits of num times a Newton reciprocal of d, and
    the exact remainder corrects its last few units.
    """
    n = d.bit_length()
    k = num.bit_length() - n + 1
    if min(k, n) <= _NEWTON_BITS:
        return num // d
    x = _reciprocal(d, k + _SLACK)
    cut = num.bit_length() - k - 2 * _SLACK
    q = ((num >> cut) * x) >> (n + k + _SLACK - cut)
    return q + (num - q * d) // d


def _sqrtrem(m):
    """(s, m - s^2) for s = floor(sqrt(m)) = math.isqrt(m), m >= 0.

    Karatsuba square root: with s1 the root of the top half of m, s = s1 2^b
    + q is one Newton step x + (m - x^2) / (2x) from x = s1 2^b, with q a
    `_div`. The remainder is exact, and at most one unit comes off s.
    """
    if m.bit_length() <= 2 * _NEWTON_BITS:
        s = math.isqrt(m)
        return s, m - s * s
    b = m.bit_length() // 4
    s1, r1 = _sqrtrem(m >> 2 * b)
    num = (r1 << b) + ((m >> b) & ((1 << b) - 1))
    q = _div(num, 2 * s1)
    s = (s1 << b) + q
    r = ((num - 2 * s1 * q) << b) + (m & ((1 << b) - 1)) - q * q
    while r < 0:
        s -= 1
        r += 2 * s + 1
    return s, r


def _chudnovsky_split(a, b):
    """(P, Q, T) of the terms a..b-1 of the Chudnovsky sum: their sum is
    P(0,a) T / (Q(0,a) Q), and T carries the signs. Leaves stay word-sized;
    big products appear only at merges."""
    if b - a == 1:
        if a == 0:
            return 1, 1, _A
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        t = p * (_A + _B * a)
        return p, a * a * a * _C3_24, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, mid)
    p2, q2, t2 = _chudnovsky_split(mid, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _pi_fixed(prec):
    """pi at scale 2^prec, within 1.04 ulp of the true value."""
    _, q, t = _chudnovsky_split(0, prec // 47 + 2)
    cut = max(0, q.bit_length() - prec - 64)
    s, _ = _sqrtrem(10005 << 2 * prec)
    return _div(426880 * s * (q >> cut), t >> cut)


# [precision, pi at that scale] of the most precise pi computed so far.
_pi_cache = [0, 0]


def _pi_at(prec):
    """pi at scale 2^prec: the cached pi shifted right, after replacing it
    by _pi_fixed(prec) if it is less precise."""
    cached_prec, pi = _pi_cache
    if prec > cached_prec:
        cached_prec, pi = prec, _pi_fixed(prec)
        _pi_cache[:] = cached_prec, pi
    return pi >> (cached_prec - prec)


@lru_cache(maxsize=8)
def pi_fraction_bytes(l, count):
    """The first `count` exact bytes of frac(l * pi).

    l = 0 is rejected: the product degenerates to zero and the stream would
    be all zeros.
    """
    if l < 1:
        raise DomainError(f"l must be a positive integer, got {l}")
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    frac_bits = 8 * count
    bits = l.bit_length()
    # pi is fetched at a full key's precision and shifted down, so every key
    # of up to 8 * KEY_BYTES bits at this count is served from one pi
    wide = max(bits, 8 * KEY_BYTES) - bits
    guard = GUARD_BITS
    while True:
        prec = frac_bits + bits + guard
        product = l * (_pi_at(prec + wide) >> wide)
        err = PI_ERROR_ULPS * l
        shift = prec - frac_bits
        # Emit only if every value in [product-err, product+err] shares the
        # same leading frac_bits bits; comparing the full shifted integers
        # (integer part included) makes borrows across the point harmless.
        lo = (product - err) >> shift
        if lo == (product + err) >> shift:
            frac = lo & ((1 << frac_bits) - 1)
            return FractionStream(frac.to_bytes(count, "big"))
        guard *= 2


_clear_streams = pi_fraction_bytes.cache_clear


def _clear_caches():
    """Empty the stream cache and the pi cache: the next call is cold."""
    _clear_streams()
    _pi_cache[:] = 0, 0


pi_fraction_bytes.cache_clear = _clear_caches
