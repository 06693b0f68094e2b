"""Integers below m! <-> permutations of {0..m-1}, and 128-bit block permutation.

The bridge is the factorial number system: n = C_0*(m-1)! + C_1*(m-2)! + ...
+ C_{m-1}*0!, with digit bounds 0 <= C_i < m-i (which force C_{m-1} = 0).
A digit tuple is turned into a permutation by a selection pass over the
arrangement (0, 1, ..., m-1): at step i the element at index C_i is emitted
and the hole is plugged by the current last element, shrinking the live
prefix by one. One read and one write per step, so building a permutation
is O(m).

The production path never materialises n itself (for m = 128 it would be
~10^215); digits come straight from keystream bytes via
``coefficients_from_bytes``. The n-based routines exist for round-trip and
bijectivity testing at small m.
"""

from dataclasses import dataclass
from math import factorial

from .errors import DomainError

BLOCK_BITS = 128
BLOCK_BYTES = BLOCK_BITS // 8
# A 128-position permutation has 127 free digits, one keystream byte each.
WINDOW_BYTES = BLOCK_BITS - 1


@dataclass(frozen=True)
class FactoradicCoefficients:
    """Digits C_0..C_{m-1} of a factorial-base representation."""

    m: int
    coeffs: tuple

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"m must be positive, got {self.m}")
        if len(self.coeffs) != self.m:
            raise DomainError(
                f"expected {self.m} digits, got {len(self.coeffs)}")
        for i, c in enumerate(self.coeffs):
            # bound 0 <= C_i < m-i; at i = m-1 this forces C_{m-1} = 0
            if not 0 <= c < self.m - i:
                raise DomainError(
                    f"digit {i} out of range: {c} not in [0, {self.m - i})")


@dataclass(frozen=True)
class Permutation:
    """mapping[i] is the source position whose content lands in slot i."""

    m: int
    mapping: tuple

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"m must be positive, got {self.m}")
        if len(self.mapping) != self.m:
            raise DomainError(
                f"expected {self.m} entries, got {len(self.mapping)}")
        if sorted(self.mapping) != list(range(self.m)):
            raise DomainError("mapping is not a rearrangement of 0..m-1")


def identity_permutation(m):
    return Permutation(m, tuple(range(m)))


def factoradic_decompose(n, m):
    """Digits of n in the factorial number system with m positions.

    Requires 0 <= n <= m! - 1; the decomposition is unique.
    """
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    if n < 0 or n >= factorial(m):
        raise DomainError(f"n={n} outside [0, {m}!-1]")
    digits = []
    rem = n
    for i in range(m):
        base = factorial(m - 1 - i)
        digits.append(rem // base)
        rem %= base
    return FactoradicCoefficients(m, tuple(digits))


def factoradic_compose(c):
    """Evaluate the digits back to the integer they represent."""
    return sum(
        digit * factorial(c.m - 1 - i) for i, digit in enumerate(c.coeffs))


def coefficients_from_bytes(window):
    """Digits for a 128-position permutation from 127 keystream bytes.

    C_i = window[i] mod (128 - i); the final digit is 0 by definition.
    The modulus makes the digit bound hold by construction.
    """
    if len(window) != WINDOW_BYTES:
        raise DomainError(
            f"window must hold {WINDOW_BYTES} bytes, got {len(window)}")
    digits = tuple(b % (BLOCK_BITS - i) for i, b in enumerate(window))
    return FactoradicCoefficients(BLOCK_BITS, digits + (0,))


def _select(coeffs, arrangement):
    """Selection pass: emit arrangement[C_i], plug the hole with the last
    live element. Exactly one read and one write of `arrangement` per step.

    When C_i already points at the last live element the write is a
    self-replacement and changes nothing.
    """
    m = len(coeffs)
    out = []
    for i, c in enumerate(coeffs):
        out.append(arrangement[c])
        arrangement[c] = arrangement[m - 1 - i]
    return out


def permutation_from_coefficients(c):
    """The permutation selected by digit tuple c (bijective below m!)."""
    return Permutation(c.m, tuple(_select(c.coeffs, list(range(c.m)))))


def invert(p):
    """The permutation q with q(p(x)) = p(q(x)) = x under apply semantics."""
    inv = [0] * p.m
    for i, src in enumerate(p.mapping):
        inv[src] = i
    return Permutation(p.m, tuple(inv))


def apply_to_bits(p, block):
    """Permute the 128 bits of a 16-byte block.

    Bit 0 is the most-significant bit of byte 0, bit 127 the
    least-significant bit of byte 15. Output bit i = input bit mapping[i].
    """
    if p.m != BLOCK_BITS:
        raise DomainError(f"bit permutation needs m=128, got m={p.m}")
    if len(block) != BLOCK_BYTES:
        raise DomainError(f"block must hold 16 bytes, got {len(block)}")
    v = int.from_bytes(block, "big")
    out = 0
    for i, src in enumerate(p.mapping):
        out |= ((v >> (127 - src)) & 1) << (127 - i)
    return out.to_bytes(16, "big")
