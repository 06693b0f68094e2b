"""AES-128 with a per-block bit permutation spliced in after the initial
whitening XOR.

Encryption of one block: state = block XOR roundkey0, permute the 128 state
bits with the block's own permutation, then the ten standard rounds.
Decryption unwinds the rounds, un-permutes, and strips the whitening key.

Payloads are processed as independent 16-byte blocks (a tweaked-codebook
arrangement: the permutation is the tweak, derived from the block index via
the sliding keystream window). ``encrypt_block``/``decrypt_block`` are the
scalar reference; payload functions run a numpy path over chunks of
CHUNK_BLOCKS blocks held as byte rows (row k holds byte k of every block).
The permutation unpacks them into bit rows and runs the Durstenfeld
selection pass in place: its swaps never look at the values they move, so
this applies every block's permutation with no matrix, and the same swaps
in reverse order undo it. In the rounds ShiftRows and the MixColumns
rotations are row moves, xtime is SWAR on uint64 words (eight byte lanes
each), and SubBytes looks up byte pairs in a 65,536-entry table. One round
loop and one MixColumns serve both directions: InvMixColumns is MixColumns
after a (5,0,4,0) pre-pass (Daemen & Rijmen, The Design of Rijndael,
4.1.3). Both directions are tested byte-for-byte against the scalar
composition and, with one permutation for every block, against AES-128-ECB
around it.

From _SPLIT_BLOCKS blocks on, a payload may run on two cores (see _host).
"""

import mmap
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _host
from .errors import DomainError
from .keystream import (
    key_to_integer, pi_fraction_bytes, required_byte_count, window)
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

# byte v of INV_SBOX is the i with SBOX[i] == v
INV_SBOX = bytes(sorted(range(256), key=SBOX.__getitem__))


# G2[x] = 2·x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1 (xtime); G3[x] = 3·x.
G2 = bytes((x << 1) & 0xFF ^ (0x1B if x & 0x80 else 0) for x in range(256))
G3 = bytes(g ^ x for x, g in enumerate(G2))

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
    """InvMixColumns as MixColumns cubed. In GF(2^8)[x]/(x^4 + 1) squaring
    acts on each coefficient and x^4 = 1, so c(x)^4 = c(1)^4 = 1 for
    c(x) = 03x^3 + 01x^2 + 01x + 02 (FIPS-197 5.3.3; Daemen & Rijmen, The
    Design of Rijndael, 4.1.3)."""
    return _mix_columns(_mix_columns(_mix_columns(s)))


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

# SubBytes on byte pairs: entry a + 256·b is S[a] + 256·S[b], stored
# little-endian so a '<u2' view of byte rows looks up two bytes at once (no
# copy on little-endian hosts: freeing one raised peak RSS by about 0.5 MiB).
_PAIR_SBOX, _PAIR_INV_SBOX = (
    (s[:, None] << 8 | s).astype("<u2", copy=False).reshape(-1)
    for s in (np.array(list(box), np.uint16) for box in (SBOX, INV_SBOX)))
# _ROTATE[k][i]: the byte k rows further down byte i's column, cyclically.
_ROTATE = {k: [i - i % 4 + (i + k) % 4 for i in range(16)] for k in (1, 2)}
# Blocks per pass of the payload loop: a chunk's working set (about 1 MiB
# at 4,096 blocks) stays near cache size. In a sweep of 2,048 to 16,384
# with padded bit rows, 8,192 saved about 5% but doubled the working set.
CHUNK_BLOCKS = 4096
# Payloads of at least this many blocks are split between the caller and one
# forked helper process (_host). The helper costs about 8 ms: fork, its late
# start and copy-on-write faults, and its exit. Two processes against one,
# medians of 61 alternated encrypts in a process holding 40 MiB, 2-core
# x86-64: 0.96-1.03 at 8,192 blocks, 0.93-1.00 at 12,288, 0.87-0.90 at
# 16,384, 0.74-0.75 at 24,576 and 0.64-0.67 at 49,152 (512x512 colour).
_SPLIT_BLOCKS = 16384
# Bytes added to every bit row: a row stride that is a multiple of 4,096
# bytes maps column j of every row to one cache set, which doubled the cost
# of a selection step's scatter.
_ROW_PAD = 64
# _DIGITS[i, b] is digit i of a window whose byte i is b: b mod (128 - i).
# Built from Python ints: with numpy's uint8 remainder, `import vpaes` left
# about 0.08 MiB more resident.
_DIGITS = np.array([[b % (BLOCK_BITS - i) for b in range(256)]
                    for i in range(WINDOW_BYTES)], dtype=np.uint8)
# A uint64 word of a bit row holds one bit position of eight blocks; these
# shifts move bit b of each byte (MSB first) to bit 0 and back, eight bytes
# at a time.
_BIT_SHIFTS = np.arange(7, -1, -1, dtype=np.uint64)[:, None]
_LOW_BITS = np.uint64(0x0101010101010101)


def _bit_rows(blocks):
    """An uninitialised position-major arrangement for `blocks` blocks: row
    p holds position p of every block, padded to whole uint64 words plus
    _ROW_PAD bytes."""
    return np.empty((BLOCK_BITS, -(-blocks // 8) * 8 + _ROW_PAD), np.uint8)


def _permute(byte_rows, windows, start, blocks, inverse=False):
    """Every block's bit permutation, or its inverse, on byte rows.

    The bits go into position-major rows (bit 0 is the MSB of byte 0),
    _shuffle permutes the rows in place, and they are packed back. Output
    bit q sits in row 127-q, so the forward direction reads the rows in
    reverse order and the inverse writes them in reverse order.
    """
    rows = _bit_rows(blocks)
    # [k, b] is row 8k + b; reversing both axes reverses the rows
    words = rows.view(np.uint64).reshape(BLOCK_BYTES, 8, -1)[
        ..., :byte_rows.shape[1] // 8]
    flipped = words[::-1, ::-1]
    into, out_of = (flipped, words) if inverse else (words, flipped)
    np.right_shift(byte_rows.view(np.uint64)[:, None], _BIT_SHIFTS, out=into)
    into &= _LOW_BITS
    _shuffle(rows, windows, start, blocks, reverse=inverse)
    out_of <<= _BIT_SHIFTS
    return np.bitwise_or.reduce(out_of, axis=1).view(np.uint8)


@lru_cache(maxsize=2)  # full chunks and the last chunk of a payload
def _slot_table(stride):
    """_DIGITS as shared, read-only byte offsets into rows `stride` apart."""
    table = np.multiply(_DIGITS, stride, dtype=np.intp)
    table.flags.writeable = False
    return table


def _shuffle(rows, windows, start, blocks, reverse=False):
    """The selection pass of blocks start..start+blocks-1, in place on the
    position-major arrangement `rows`; reverse=True undoes it.

    Window j starts at byte j of `windows`, keystream.window's bytes, so digit
    i of every block comes from raw[start+i:][:blocks]. Step i swaps the
    selected element of each block into the last live row, 127-i, which leaves
    the selection sequence in reverse row order. A swap never looks at the
    values it moves, so rows of state bits are permuted exactly as rows of
    positions would be, and running the steps backwards restores them.
    """
    # as intp, so no step converts its byte indices into the slot table
    raw = np.frombuffer(windows, dtype=np.uint8)[
        start:start + blocks + WINDOW_BYTES - 1].astype(np.intp)
    flat = rows.reshape(-1)
    slot_table = _slot_table(rows.strides[0])
    columns = np.arange(blocks)
    steps = range(WINDOW_BYTES)
    for i in reversed(steps) if reverse else steps:
        slots = slot_table[i].take(raw[i:i + blocks])
        slots += columns
        last = rows[BLOCK_BITS - 1 - i, :blocks]
        picked = flat.take(slots)
        flat[slots] = last
        last[:] = picked


def derive_permutation_matrix(stream, blocks, start=0):
    """Permutations of blocks start..start+blocks-1 as a (blocks, 128)
    uint8 array.

    Row j is the selection sequence for the digits of window start+j;
    identical to running coefficients_from_bytes +
    permutation_from_coefficients per block. This is _shuffle, the pass the
    payload kernels run on state bits, run on position numbers.
    """
    windows = window(stream, start, blocks)
    rows = _bit_rows(blocks)
    rows[:, :blocks] = np.arange(BLOCK_BITS, dtype=np.uint8)[:, None]
    _shuffle(rows, windows, 0, blocks)
    return rows[::-1, :blocks].T


def _xtime(rows):
    """Multiplication by x (that is, by 2) in GF(2^8) on byte rows, as SWAR
    on their uint64 view: eight byte lanes per word, no carry across lanes."""
    words = rows.view(np.uint64)
    high = words & np.uint64(0x8080808080808080)
    out = (words ^ high) << np.uint64(1)
    out ^= (high >> np.uint64(7)) * np.uint64(0x1B)
    return out.view(np.uint8)


def _mix(rows):
    """MixColumns of byte rows. Output byte r of a column is
    xtime(p_r) ^ a_r+1 ^ p_r+2, where p_r = a_r ^ a_r+1."""
    down = rows.take(_ROTATE[1], axis=0)
    pair = rows ^ down
    return _xtime(pair) ^ down ^ pair.take(_ROTATE[2], axis=0)


def _inv_mix(rows):
    """InvMixColumns: MixColumns after the pre-pass a_r ^= 4·(a_r ^ a_r+2)."""
    return _mix(rows ^ _xtime(_xtime(rows ^ rows.take(_ROTATE[2], axis=0))))


def _rounds(rows, keys, sbox, shift, mix):
    """AES rounds 1..10 in one direction on byte rows: a full round (Sub,
    Shift, Mix, AddKey) per (16, 1) key column in `keys`, then Sub and
    Shift. ShiftRows and the rotations in `mix` are row moves."""
    for key in keys:
        rows = mix(sbox.take(rows.view("<u2")).view(np.uint8).take(
            shift, axis=0)) ^ key
    return sbox.take(rows.view("<u2")).view(np.uint8).take(shift, axis=0)


# The kernels run one chunk's byte rows from the first round key's XOR to
# just before the last one's; keys holds the nine inner keys in their order.
def _encrypt_rows(rows, windows, start, blocks, keys):
    rows = _permute(rows, windows, start, blocks)
    return _rounds(rows, keys, _PAIR_SBOX, SHIFT_IDX, _mix)


def _decrypt_rows(rows, windows, start, blocks, keys):
    rows = _rounds(rows, keys, _PAIR_INV_SBOX, INV_SHIFT_IDX, _inv_mix)
    return _permute(rows, windows, start, blocks, inverse=True)


def _aligned_blocks(data):
    if len(data) % BLOCK_BYTES:
        raise DomainError(
            f"payload length {len(data)} is not a multiple of 16")
    return len(data) // BLOCK_BYTES


def _run_blocks(data, key, stream, inverse=False):
    """The payload pipeline. Round keys become (16, 1) columns in the order
    they are added; decryption is the FIPS-197 equivalent inverse cipher
    (InvMixColumns applied to round keys 9..1), so both directions run the
    same round sequence. Each chunk of CHUNK_BLOCKS blocks is transposed
    into byte rows (16, W) with the first key's XOR (row k holds byte k of
    every block; W is n in whole uint64 words) and back with the last key's
    XOR into one preallocated output, so the working set stays cache-sized
    and memory stays bounded whatever the payload size. From _SPLIT_BLOCKS
    blocks on, a forked helper may run the second half (see _host)."""
    blocks = _aligned_blocks(data)
    if not blocks:
        return b""
    windows = window(stream, 0, blocks)  # before any chunk runs or forks
    state = np.frombuffer(data, dtype=np.uint8).reshape(blocks, BLOCK_BYTES)
    keys = expand_key(key).keys
    if inverse:
        keys = (keys[ROUNDS], *map(_inv_mix_columns, keys[9:0:-1]), keys[0])
    keys = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, BLOCK_BYTES, 1)
    kernel = _decrypt_rows if inverse else _encrypt_rows
    split = blocks >= _SPLIT_BLOCKS and _host.may_fork()
    if split:  # anonymous shared pages: the helper writes its rows in place
        out = np.frombuffer(mmap.mmap(-1, state.nbytes, mmap.MAP_SHARED),
                            np.uint8).reshape(state.shape)
    else:
        out = np.empty_like(state)

    def run(lo, hi):
        for start in range(lo, hi, CHUNK_BLOCKS):
            n = min(CHUNK_BLOCKS, hi - start)
            rows = np.empty((BLOCK_BYTES, -(-n // 8) * 8), np.uint8)
            np.bitwise_xor(state[start:start + n].T, keys[0], out=rows[:, :n])
            rows = kernel(rows, windows, start, n, keys[1:ROUNDS])
            np.bitwise_xor(rows[:, :n].T, keys[ROUNDS].T,
                           out=out[start:start + n])

    if split:
        _host.in_two_processes(run, blocks)
    else:
        run(0, blocks)
    return out.tobytes()


def encrypt_payload_with_stream(data, key, stream):
    """Encrypt an aligned payload using an already-materialised stream."""
    return _run_blocks(data, key, stream)


def decrypt_payload_with_stream(data, key, stream):
    return _run_blocks(data, key, stream, inverse=True)


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
