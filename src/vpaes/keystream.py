"""Keystream: the byte expansion of frac(l*pi), where l is the key as an
integer.

Every encryption consumes a prefix of this stream; block j reads the sliding
127-byte window starting at byte j, so a payload of B blocks needs B + 126
bytes in total.

pi is computed in-process as a binary fixed-point integer using the
four-arctangent Machin identity pi = 16*atan(1/5) - 4*atan(1/239), each
arctangent evaluated exactly by binary splitting and floor-divided once at
the end. All emitted bytes are exact: the working precision carries
``bitlen(l) + 64`` guard bits below the requested bytes, the total rounding
plus truncation error is provably below 32 ulp before multiplication by l,
and the extraction step refuses to emit unless the error interval lands
strictly inside one byte-window value (on the astronomically rare carry
ambiguity it doubles the guard bits and recomputes).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .permgen import WINDOW_BYTES

KEY_BYTES = 16
GUARD_BITS = 64

# |pi * 2^prec - _pi_fixed(prec)| is provably <= 25 (floor error of at most
# 1 ulp plus a series tail below 1/4 ulp for each arctangent, scaled by the
# coefficients 16 and 4); 32 leaves headroom.
PI_ERROR_ULPS = 32


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


def _atan_split(q2, a, b):
    """Binary splitting of S(a,b) = sum_{k=a}^{b-1} (-1)^k / ((2k+1) q^2k).

    Returns (t, p, bden) with S(a,b) = t / (q^2a * p * bden), where
    p = q^(2(b-a)) and bden is the product of the odd factors. Leaves stay
    word-sized; big products appear only at merges.
    """
    if b - a == 1:
        return (q2 if a % 2 == 0 else -q2), q2, 2 * a + 1
    mid = (a + b) // 2
    t1, p1, b1 = _atan_split(q2, a, mid)
    t2, p2, b2 = _atan_split(q2, mid, b)
    return t1 * p2 * b2 + t2 * b1, p1 * p2, b1 * b2


def _arctan_recip_fixed(q, prec):
    """floor-style fixed-point atan(1/q) at scale 2^prec.

    The alternating series is cut once the first omitted term drops below
    2^-(prec+2), so |result - atan(1/q)*2^prec| < 1 + 1/4.
    """
    terms = int((prec + 2) / (2 * math.log2(q))) + 2
    t, p, bden = _atan_split(q * q, 0, terms)
    return (t << prec) // (q * p * bden)


def _pi_fixed(prec):
    """pi at scale 2^prec, within PI_ERROR_ULPS of the true value."""
    return 16 * _arctan_recip_fixed(5, prec) - 4 * _arctan_recip_fixed(239, prec)


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
    guard = GUARD_BITS
    while True:
        prec = frac_bits + l.bit_length() + guard
        product = l * _pi_fixed(prec)
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
