"""AES-128 with a per-block bit permutation spliced in after the initial
whitening XOR.

Encryption of one block: state = block XOR roundkey0, permute the 128 state
bits with the block's own permutation, then the ten standard rounds.
Decryption unwinds the rounds, un-permutes, and strips the whitening key.

Payloads are processed as independent 16-byte blocks (a tweaked-codebook
arrangement: the permutation is the tweak, derived from the block index via
the sliding keystream window). ``encrypt_block``/``decrypt_block`` are the
scalar reference; payload functions run a numpy path over chunks of
CHUNK_BLOCKS blocks. Each chunk derives its permutations, runs the rounds
and writes into one preallocated output, so time grows linearly with the
payload and memory beyond input and output stays bounded. One round loop
and one arithmetic MixColumns serve both directions: InvMixColumns is
MixColumns after a (5,0,4,0) pre-pass (Daemen & Rijmen, The Design of
Rijndael, 4.1.3). Both directions are tested byte-for-byte against the
scalar composition and, with identity permutations, against AES-128-ECB.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .keystream import key_to_integer, pi_fraction_bytes, required_byte_count
from .permgen import (
    BLOCK_BITS, BLOCK_BYTES, WINDOW_BYTES, apply_to_bits, invert)

ROUNDS = 10

SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")

_inv = bytearray(256)
for _i, _v in enumerate(SBOX):
    _inv[_v] = _i
INV_SBOX = bytes(_inv)
del _inv, _i, _v


def _gmul(a, b):
    """Multiplication in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    r = 0
    for _ in range(8):
        if b & 1:
            r ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return r


G2 = bytes(_gmul(2, x) for x in range(256))
G3 = bytes(_gmul(3, x) for x in range(256))
G9 = bytes(_gmul(9, x) for x in range(256))
G11 = bytes(_gmul(11, x) for x in range(256))
G13 = bytes(_gmul(13, x) for x in range(256))
G14 = bytes(_gmul(14, x) for x in range(256))

# ShiftRows on bytes in AES input order (byte i sits at row i%4, col i//4):
# output byte r+4c takes input byte r+4((c+r)%4).
SHIFT_IDX = tuple(
    (i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16))
INV_SHIFT_IDX = tuple(
    (i % 4) + 4 * (((i // 4) - (i % 4)) % 4) for i in range(16))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


@dataclass(frozen=True)
class RoundKeys:
    """The 11 expanded 16-byte round keys; keys[0] is the cipher key."""

    keys: tuple

    def __post_init__(self):
        if len(self.keys) != ROUNDS + 1:
            raise DomainError(f"expected {ROUNDS + 1} round keys")
        if any(len(k) != BLOCK_BYTES for k in self.keys):
            raise DomainError("each round key must hold 16 bytes")


def expand_key(key):
    """Standard AES-128 key expansion: 44 words, 11 round keys."""
    words = [list(key.data[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [SBOX[b] for b in t]
            t[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    return RoundKeys(tuple(
        bytes(words[4 * r] + words[4 * r + 1] + words[4 * r + 2]
              + words[4 * r + 3]) for r in range(ROUNDS + 1)))


def _xor16(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def _mix_columns(s):
    out = bytearray(16)
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
        out[c] = G2[a0] ^ G3[a1] ^ a2 ^ a3
        out[c + 1] = a0 ^ G2[a1] ^ G3[a2] ^ a3
        out[c + 2] = a0 ^ a1 ^ G2[a2] ^ G3[a3]
        out[c + 3] = G3[a0] ^ a1 ^ a2 ^ G2[a3]
    return bytes(out)


def _inv_mix_columns(s):
    out = bytearray(16)
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
        out[c] = G14[a0] ^ G11[a1] ^ G13[a2] ^ G9[a3]
        out[c + 1] = G9[a0] ^ G14[a1] ^ G11[a2] ^ G13[a3]
        out[c + 2] = G13[a0] ^ G9[a1] ^ G14[a2] ^ G11[a3]
        out[c + 3] = G11[a0] ^ G13[a1] ^ G9[a2] ^ G14[a3]
    return bytes(out)


def encrypt_block(block, perm, round_keys):
    """One 16-byte block under one 128-position permutation."""
    if len(block) != BLOCK_BYTES:
        raise DomainError(f"block must hold 16 bytes, got {len(block)}")
    rks = round_keys.keys
    s = _xor16(block, rks[0])
    s = apply_to_bits(perm, s)
    for rnd in range(1, ROUNDS):
        s = s.translate(SBOX)
        s = bytes(s[i] for i in SHIFT_IDX)
        s = _mix_columns(s)
        s = _xor16(s, rks[rnd])
    s = s.translate(SBOX)
    s = bytes(s[i] for i in SHIFT_IDX)
    return _xor16(s, rks[ROUNDS])


def decrypt_block(block, perm, round_keys):
    """Exact inverse of encrypt_block for the same permutation."""
    if len(block) != BLOCK_BYTES:
        raise DomainError(f"block must hold 16 bytes, got {len(block)}")
    rks = round_keys.keys
    s = _xor16(block, rks[ROUNDS])
    for rnd in range(ROUNDS - 1, 0, -1):
        s = bytes(s[i] for i in INV_SHIFT_IDX)
        s = s.translate(INV_SBOX)
        s = _xor16(s, rks[rnd])
        s = _inv_mix_columns(s)
    s = bytes(s[i] for i in INV_SHIFT_IDX)
    s = s.translate(INV_SBOX)
    s = apply_to_bits(invert(perm), s)
    return _xor16(s, rks[0])


# ---------------------------------------------------------------------------
# Vectorised payload path: one numpy array op per cipher step, every block of
# a chunk at once.

_SBOX_NP = np.frombuffer(SBOX, dtype=np.uint8)
_INV_SBOX_NP = np.frombuffer(INV_SBOX, dtype=np.uint8)
# _ROTATE[k][i]: the byte k rows further down byte i's column, cyclically.
_ROTATE = {k: [i - i % 4 + (i + k) % 4 for i in range(16)] for k in (1, 2)}
# Blocks per pass of the payload loop: a chunk's working set (about 1.5 KiB
# per block) stays near cache size. Sizes from 2,048 to 16,384 ran equally
# fast from 512² to 2048² RGB; the smaller working set decided.
CHUNK_BLOCKS = 4096


def derive_permutation_matrix(stream, blocks, start=0):
    """Permutations of blocks start..start+blocks-1 as a (blocks, 128)
    uint8 array.

    Row j is the selection sequence for the digits of window start+j;
    identical to running coefficients_from_bytes +
    permutation_from_coefficients per block. Window j starts at stream byte
    j, so digit i of every block is raw[start+i:][:blocks] % (128-i). Each
    step swaps the selected element into the last live slot, which leaves
    the selection sequence in reverse order. The arrangement is
    position-major (the row of position p is contiguous), so a step is a
    gather and a scatter through p·blocks + column and one row copy.
    """
    if blocks < 1 or start < 0:
        raise DomainError(
            f"need blocks >= 1 and start >= 0, got {blocks} and {start}")
    if stream.count < required_byte_count(start + blocks):
        raise DomainError(f"stream of {stream.count} bytes cannot serve "
                          f"blocks {start}..{start + blocks - 1}")
    raw = np.frombuffer(stream.data, dtype=np.uint8)[start:]
    arrangement = np.repeat(np.arange(BLOCK_BITS, dtype=np.uint8), blocks)
    columns = np.arange(blocks)
    for i in range(WINDOW_BYTES):
        digits = raw[i:i + blocks] % (BLOCK_BITS - i)
        slots = digits.astype(np.intp) * blocks + columns
        last = arrangement[(BLOCK_BITS - 1 - i) * blocks:][:blocks]
        picked = arrangement[slots]
        arrangement[slots] = last
        last[:] = picked
    return arrangement.reshape(BLOCK_BITS, blocks)[::-1].T


def _xtime(a):
    """Multiplication by x (that is, by 2) in GF(2^8) on a uint8 array."""
    return (a << 1) ^ ((a >> 7) * 0x1B)


def _mix(state):
    """MixColumns of (n, 16) states. Output byte r of a column is
    xtime(p_r) ^ a_r+1 ^ p_r+2, where p_r = a_r ^ a_r+1."""
    down = state[:, _ROTATE[1]]
    pair = state ^ down
    return _xtime(pair) ^ down ^ pair[:, _ROTATE[2]]


def _inv_mix(state):
    """InvMixColumns: MixColumns after the pre-pass a_r ^= 4·(a_r ^ a_r+2)."""
    return _mix(state ^ _xtime(_xtime(state ^ state[:, _ROTATE[2]])))


def _rounds(state, rks, sbox, shift, mix):
    """AES rounds 1..10 in one direction: a full round (Sub, Shift, Mix,
    AddKey) per key in `rks`, then Sub and Shift; the caller adds the outer
    round keys."""
    for rk in rks:
        state = mix(sbox[state][:, shift]) ^ rk
    # The [:, shift] gather returns a column-major array, on which row-wise
    # passes such as decrypt's np.unpackbits(axis=1) run about 30x slower.
    return np.ascontiguousarray(sbox[state][:, shift])


def _bit_slots(perms):
    """Flat indices into an (n, 128) bit array: (j, q) -> 128·j + perms[j, q],
    C-ordered."""
    offsets = np.arange(0, perms.size, BLOCK_BITS)[:, None]
    return np.add(perms, offsets, out=np.empty(perms.shape, dtype=np.intp))


def _encrypt_blocks(state, perms, rks):
    bits = np.unpackbits(state ^ rks[0], axis=1)
    state = np.packbits(bits.take(_bit_slots(perms)), axis=1)
    return _rounds(state, rks[1:ROUNDS], _SBOX_NP, SHIFT_IDX,
                   _mix) ^ rks[ROUNDS]


def _decrypt_blocks(state, perms, rks):
    # FIPS-197 equivalent inverse cipher: with InvMixColumns applied to
    # round keys 9..1, decryption runs the same round sequence as encryption.
    inner = _inv_mix(np.stack(rks[ROUNDS - 1:0:-1]))
    state = _rounds(state ^ rks[ROUNDS], inner, _INV_SBOX_NP, INV_SHIFT_IDX,
                    _inv_mix)
    bits = np.empty(perms.shape, dtype=np.uint8)
    bits.ravel()[_bit_slots(perms)] = np.unpackbits(state, axis=1)
    return np.packbits(bits, axis=1) ^ rks[0]


def _aligned_blocks(data):
    if len(data) % BLOCK_BYTES:
        raise DomainError(
            f"payload length {len(data)} is not a multiple of 16")
    return len(data) // BLOCK_BYTES


def _run_blocks(kernel, data, key, stream):
    """The payload pipeline: check alignment, expand the key, then per chunk
    of CHUNK_BLOCKS blocks derive the permutations, run the kernel and write
    the result into one preallocated output, so the working set stays
    cache-sized and memory stays bounded whatever the payload size."""
    blocks = _aligned_blocks(data)
    if not blocks:
        return b""
    state = np.frombuffer(data, dtype=np.uint8).reshape(blocks, BLOCK_BYTES)
    rks = [np.frombuffer(k, dtype=np.uint8) for k in expand_key(key).keys]
    out = np.empty_like(state)
    for start in range(0, blocks, CHUNK_BLOCKS):
        stop = min(start + CHUNK_BLOCKS, blocks)
        perms = derive_permutation_matrix(stream, stop - start, start)
        out[start:stop] = kernel(state[start:stop], perms, rks)
    return out.tobytes()


def encrypt_payload_with_stream(data, key, stream):
    """Encrypt an aligned payload using an already-materialised stream."""
    return _run_blocks(_encrypt_blocks, data, key, stream)


def decrypt_payload_with_stream(data, key, stream):
    return _run_blocks(_decrypt_blocks, data, key, stream)


def _stream_for(key, data):
    """The keystream prefix an aligned payload reads (one window at least,
    so the key is checked even for an empty payload)."""
    blocks = max(_aligned_blocks(data), 1)
    return pi_fraction_bytes(key_to_integer(key), required_byte_count(blocks))


def encrypt_payload(data, key):
    """Encrypt a 16-byte-aligned payload; block j gets the permutation of
    keystream window j. Output length equals input length."""
    return encrypt_payload_with_stream(data, key, _stream_for(key, data))


def decrypt_payload(data, key):
    return decrypt_payload_with_stream(data, key, _stream_for(key, data))
