"""Keystream: the byte expansion of frac(l*pi), where l is the key as an
integer.

Every encryption consumes a prefix of this stream; block j reads the sliding
127-byte window starting at byte j, so a payload of B blocks needs B + 126
bytes in total.

pi comes from the Chudnovsky series (Chudnovsky & Chudnovsky, 1988)

    1/pi = 12 * sum_k (-1)^k (6k)! (A + B k) / ((3k)! (k!)^3 C^(3k+3/2)),
    A = 13591409, B = 545140134, C = 640320.

Binary splitting (Haible & Papanikolaou, 1998) sums its first N = p // 47 + 2
terms exactly as T/Q, so pi = 426880 sqrt(10005) Q / T = K r Q / T with
K = 426880 * 10005 and r = 1/sqrt(10005). The big arithmetic is libmpdec, the
C `decimal` module (exact number-theoretic products, correctly rounded
division), called through private contexts: the thread's decimal context is
never read or changed. Without `_decimal`, computing pi raises VpaesError.
From _SPLIT_TERMS terms on, where _host.may_fork(), a forked helper sums the
right part of the series while this process sums the left and computes r'
and 2^p. Q and T are exact integers, so pi is the same on one process or two.

`_pi_fixed(p)` returns floor(z), z = fl(fl(fl(fl(K Q) / fl(T)) r') 2^p), where
fl rounds half-even to D = floor(0.30103 p) + 8 digits (10^D >= 2^p 10^7),
off by a relative u = 5 * 10^-D at most. It is within 1.001 ulp of pi * 2^p:
  - series tail: the terms alternate and shrink, so the tail is below the
    first omitted term, (A + B N) (1728 / C^3)^N < (A + B N) 2^-(p + 48).
    The partial sums stay above A - 1, so this moves pi * 2^p by less than
    4 (1 + 41 N) 2^-48, below 2^-10 ulp for N < 2^30;
  - root: r' comes from Newton steps x' = x + x e / 2, e = 1 - 10005 x^2,
    at precisions p_i <= 2 p_(i-1) - 3 digits up to D, from the float root
    (relative error below 10^-15 <= 10^(1-p_0)). From x = r (1 + d) a step
    gives r (1 - 3 d^2 / 2 - d^3 / 2), and its four roundings add at most
    1.51 u_i, so |d_i| <= 1.51 d_(i-1)^2 + 7.6 * 10^-p_i <= 10^(1-p_i), and
    |d| < 8 * 10^-D after the last step;
  - rounding: the five fl and the root put z within a relative 34 * 10^-D,
    under 4 * 34 * 10^-7 < 2^-16 ulp (2^p itself is exact);
  - the floor adds less than 1 ulp.

pi does not depend on the key, so the most precise pi so far is cached: a
request at the same or a smaller precision is served shifted right, and a
larger one replaces it. Nested floors compose, so a value served is
floor(_pi_fixed(P) / 2^j), j >= 0, at most 1.001 / 2 + 1 < 1.51 ulp off,
the bound PI_ERROR_ULPS states. The cache is filled at a full 128-bit key's
precision, so every key at one stream length shares it;
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

from . import _host
from .errors import DomainError, VpaesError
from .permgen import WINDOW_BYTES

try:
    from _decimal import (
        MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, ROUND_HALF_EVEN, Context,
        DivisionByZero, InvalidOperation, Overflow)
except ImportError:  # pure-Python decimal only: _pi_fixed refuses to run
    Context = None

KEY_BYTES = 16
GUARD_BITS = 64

# Any pi served at scale 2^prec is within 1.51 ulp (module docstring).
PI_ERROR_ULPS = 2

# Chudnovsky constants: A, B and C^3 / 24.
_A, _B, _C3_24 = 13591409, 545140134, 640320 ** 3 // 24
_LEAF_TERMS = 100  # most terms in one int leaf of the split
_STR_DIGITS = 512  # _to_int's str pieces: under 640, the least int/str limit
# Cold pi, two processes (the helper on another CPU) against one, medians of
# 31 alternated calls, two runs: 1.07-1.08 at 600 terms, 0.93-1.03 at 1,000,
# 0.85-0.92 at 1,500 and 0.80-0.88 at 2,100 (256x256): two break even near
# 1,000. The left part, 48%, also computes r' and 2^p (fastest of 42-50).
_SPLIT_TERMS, _LEFT_SHARE = 1000, 48


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


def window(stream, j, blocks=1):
    """Bytes j..j+blocks+125 of the stream: the digit windows of blocks
    j..j+blocks-1. The one check of a stream against the blocks it serves."""
    end = j + blocks + WINDOW_BYTES - 1
    if j < 0 or blocks < 1 or end > stream.count:
        raise DomainError(f"stream of {stream.count} bytes cannot serve "
                          f"blocks {j}..{j + blocks - 1}")
    return stream.data[j:end]


def _chudnovsky_split(a, b, need_p=True):
    """(P, Q, T) of the terms a..b-1 of the Chudnovsky sum: their sum is
    P(0,a) T / (Q(0,a) Q), and T carries the signs. Ranges of up to
    _LEAF_TERMS terms merge as ints, larger ones as exact Decimals. A merge
    needs P of its left half only, so with need_p false merges skip their
    P product and return None for it: pi needs no P(0, N), nor any P along
    the right edge of the split."""
    if b - a == 1:
        if a == 0:
            return 1, 1, _A
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        t = p * (_A + _B * a)
        return p, a * a * a * _C3_24, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, mid)
    p2, q2, t2 = _chudnovsky_split(mid, b, need_p)
    if b - a <= _LEAF_TERMS:
        return p1 * p2 if need_p else None, q1 * q2, q2 * t1 + p1 * t2
    mul = _EXACT.multiply
    return (mul(p1, p2) if need_p else None, mul(q1, q2),
            _EXACT.add(mul(q2, t1), mul(p1, t2)))


def _context(prec, rounding):
    """A context that takes no setting from the thread's or DefaultContext."""
    return Context(prec=prec, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX,
                   traps=[InvalidOperation, DivisionByZero, Overflow])


# Exact: no value here nears MAX_PREC digits, so only the floors round.
_EXACT = _context(MAX_PREC, ROUND_FLOOR) if Context else None


def _inv_sqrt_10005(digits):
    """1/sqrt(10005) within a relative 8 * 10^-digits by Newton steps
    (module docstring); Decimal.sqrt was 77 times slower at 10^5 digits."""
    if digits <= 16:
        return _EXACT.create_decimal_from_float(1 / math.sqrt(10005))
    x = _inv_sqrt_10005((digits + 4) // 2)
    ctx = _context(digits, ROUND_HALF_EVEN)
    e = ctx.fma(ctx.multiply(x, x), -10005, 1)
    return ctx.fma(x, ctx.divide(e, 2), x)


def _to_int(d):
    """floor(d) as an int, for a finite Decimal d >= 0. int(d) is quadratic,
    so scaleb and floor halve d at powers of ten 10^(_STR_DIGITS 2^j), int
    powers built by squaring join the halves, and only short pieces go
    through strings (Brent & Zimmermann, *Modern Computer Arithmetic*, §1.7).
    """
    d = _EXACT.quantize(d, 1)
    powers = [10 ** _STR_DIGITS]
    while _STR_DIGITS << len(powers) <= d.adjusted():
        powers.append(powers[-1] ** 2)
    def join(d, j):
        # d < 10^(_STR_DIGITS 2^(j+1)), and its exponent is 0
        if d.adjusted() < _STR_DIGITS:
            return int(_EXACT.to_sci_string(d))
        shift = _STR_DIGITS << j
        high = _EXACT.to_integral_value(_EXACT.scaleb(d, -shift))
        low = _EXACT.subtract(d, _EXACT.scaleb(high, shift))
        return join(high, j - 1) * powers[j] + join(low, j - 1)
    return join(d, len(powers) - 1)


def _pi_fixed(prec):
    """pi at scale 2^prec, within 1.001 ulp of the true value."""
    if Context is None:
        raise VpaesError("pi needs CPython's C decimal module, _decimal")
    digits = prec * 30103 // 100000 + 8
    ctx = _context(digits, ROUND_HALF_EVEN)
    n = prec // 47 + 2
    mid = n * _LEFT_SHARE // 100 if (
        n >= _SPLIT_TERMS and _host.may_fork()) else n

    def left():
        return (_chudnovsky_split(0, mid, need_p=mid < n),
                _inv_sqrt_10005(digits), _EXACT.power(2, prec))

    def right():  # Q and T as text: libmpdec converts it in linear time
        _, q, t = _chudnovsky_split(mid, n, need_p=False)
        return " ".join(map(_EXACT.to_sci_string, (q, t))).encode()

    if mid == n:
        (_, q, t), r, scale = left()
    else:
        ((p, q, t), r, scale), text = _host.in_two_processes(left, right)
        q2, t2 = map(_EXACT.create_decimal, text.decode().split())
        mul = _EXACT.multiply  # the top merge, as in _chudnovsky_split
        q, t = mul(q, q2), _EXACT.add(mul(q2, t), mul(p, t2))
        del p, q2, t2, text  # before the division, the largest step
    q, t = ctx.multiply(q, 426880 * 10005), ctx.plus(t)  # drops exact Q, T
    return _to_int(ctx.multiply(ctx.multiply(ctx.divide(q, t), r), scale))


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
