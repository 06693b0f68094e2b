"""AES-128 with a per-block bit permutation spliced in after the initial
whitening XOR.

Encryption of one block: state = block XOR roundkey0, permute the 128 state
bits with the block's own permutation, then the ten standard rounds.
Decryption unwinds the rounds, un-permutes, and strips the whitening key.
Payloads are independent 16-byte blocks (a tweaked codebook: the
permutation is the tweak, derived from the block index via the sliding
keystream window). ``encrypt_block``/``decrypt_block`` are the scalar
reference, which the payload path is tested against byte for byte.

The payload path runs the rounds in libcrypto, bound with ctypes through
CPython's _hashlib: rounds 1..10 of block x are AES-128-ECB of
P(x XOR k0) XOR k0, since ECB adds k0 first and the two XORs cancel. The
permutation runs on chunks of CHUNK_BLOCKS blocks unpacked into bit rows,
as the Durstenfeld selection pass in place: its swaps never look at the
values they move, so this applies every block's permutation with no
matrix, and the same swaps in reverse order undo it. From _SPLIT_BLOCKS
blocks on, a payload may run on two cores (see _host).
"""

import ctypes
import mmap
from functools import lru_cache

import numpy as np

from . import _host
from .errors import DomainError, VpaesError
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


def expand_key(key):
    """Standard AES-128 key expansion: 44 words, a tuple of 11 16-byte round
    keys, the first of them the cipher key."""
    words = [list(key.data[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [SBOX[b] for b in t]
            t[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    return tuple(
        bytes(words[4 * r] + words[4 * r + 1] + words[4 * r + 2]
              + words[4 * r + 3]) for r in range(ROUNDS + 1))


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
    s = _xor16(block, round_keys[0])
    s = apply_to_bits(perm, s)
    for rnd in range(1, ROUNDS):
        s = s.translate(SBOX)
        s = bytes(s[i] for i in SHIFT_IDX)
        s = _mix_columns(s)
        s = _xor16(s, round_keys[rnd])
    s = s.translate(SBOX)
    s = bytes(s[i] for i in SHIFT_IDX)
    return _xor16(s, round_keys[ROUNDS])


def decrypt_block(block, perm, round_keys):
    """Exact inverse of encrypt_block for the same permutation."""
    if len(block) != BLOCK_BYTES:
        raise DomainError(f"block must hold 16 bytes, got {len(block)}")
    s = _xor16(block, round_keys[ROUNDS])
    for rnd in range(ROUNDS - 1, 0, -1):
        s = bytes(s[i] for i in INV_SHIFT_IDX)
        s = s.translate(INV_SBOX)
        s = _xor16(s, round_keys[rnd])
        s = _inv_mix_columns(s)
    s = bytes(s[i] for i in INV_SHIFT_IDX)
    s = s.translate(INV_SBOX)
    s = apply_to_bits(invert(perm), s)
    return _xor16(s, round_keys[0])


# ---------------------------------------------------------------------------
# Payload path: numpy array ops on every block of a chunk at once, and
# libcrypto's AES-128-ECB for the rounds.

# Blocks per pass of the payload loop: a chunk's working set (about 1 MiB
# at 4,096 blocks) stays near cache size. In a sweep of 2,048 to 16,384
# with padded bit rows, 8,192 saved about 5% but doubled the working set.
CHUNK_BLOCKS = 4096
# Payloads of at least this many blocks are split between the caller and one
# forked helper process (_host). The helper costs about 8 ms: fork, its late
# start and copy-on-write faults, and its exit. Two processes against one,
# encrypt and decrypt, medians of 61 alternated calls in a process holding
# 40 MiB, three runs, 2-core x86-64: 1.10-1.21 at 8,192 blocks, 0.95-1.04
# at 12,288, 0.85-1.03 at 16,384, 0.74-0.91 at 24,576 and 0.63-0.67 at
# 49,152 (512x512 colour).
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


def _bind_libcrypto():
    """libcrypto's EVP cipher calls, found through the libraries CPython's
    _hashlib links (no library search), or None where they are missing."""
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, restype, argtypes in (
                ("EVP_CIPHER_CTX_new", ptr, ()),
                ("EVP_aes_128_ecb", ptr, ()),
                ("EVP_CipherInit_ex", c_int,
                 (ptr, ptr, ptr, ctypes.c_char_p, ptr, c_int)),
                ("EVP_CIPHER_CTX_set_padding", c_int, (ptr, c_int)),
                ("EVP_CipherUpdate", c_int,
                 (ptr, ptr, ctypes.POINTER(c_int), ptr, c_int)),
                ("EVP_CIPHER_CTX_free", None, (ptr,))):
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


_LIBCRYPTO = _bind_libcrypto()


def _ecb(key, src, dst, encrypt):
    """AES-128-ECB of the (n, 16) uint8 array src into dst, which may be
    src itself."""
    if not (src.shape == dst.shape and src.dtype == dst.dtype == np.uint8
            and src.flags.c_contiguous and dst.flags.c_contiguous
            and dst.flags.writeable):
        raise DomainError("AES-128-ECB needs C-contiguous uint8 arrays of "
                          "one shape, the output writable")
    lib, done = _LIBCRYPTO, ctypes.c_int()
    ctx = lib.EVP_CIPHER_CTX_new()
    if not ctx:
        raise VpaesError("libcrypto could not allocate a cipher context")
    try:
        ok = (lib.EVP_CipherInit_ex(ctx, lib.EVP_aes_128_ecb(), None,
                                    key.data, None, encrypt) == 1
              and lib.EVP_CIPHER_CTX_set_padding(ctx, 0) == 1
              and lib.EVP_CipherUpdate(ctx, dst.ctypes.data, done,
                                       src.ctypes.data, src.nbytes) == 1)
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
    if not ok or done.value != src.nbytes:
        raise VpaesError("libcrypto's AES-128-ECB failed")


def _aligned_blocks(data):
    if len(data) % BLOCK_BYTES:
        raise DomainError(
            f"payload length {len(data)} is not a multiple of 16")
    return len(data) // BLOCK_BYTES


def _run_blocks(data, key, stream, inverse=False):
    """The payload pipeline, chunk by chunk into one preallocated output,
    so memory stays bounded whatever the payload size. A chunk becomes byte
    rows (16, W) with k0 XORed in (row k holds byte k of every block; W is
    n in whole uint64 words), is permuted, and goes back with k0 XORed in
    again, between the ECB rounds. From _SPLIT_BLOCKS blocks on, a forked
    helper may run the second half (see _host)."""
    blocks = _aligned_blocks(data)
    if not blocks:
        return b""
    if _LIBCRYPTO is None:
        raise VpaesError("the AES rounds need libcrypto, as linked by "
                         "CPython's _hashlib module")
    windows = window(stream, 0, blocks)  # before any chunk runs or forks
    state = np.frombuffer(data, dtype=np.uint8).reshape(blocks, BLOCK_BYTES)
    k0 = np.frombuffer(key.data, np.uint8)
    split = blocks >= _SPLIT_BLOCKS and _host.may_fork()
    if split:  # anonymous shared pages: the helper writes its rows in place
        out = np.frombuffer(mmap.mmap(-1, state.nbytes, mmap.MAP_SHARED),
                            np.uint8).reshape(state.shape)
    else:
        out = np.empty_like(state)

    def run(lo, hi):
        for start in range(lo, hi, CHUNK_BLOCKS):
            n = min(CHUNK_BLOCKS, hi - start)
            src, dst = state[start:start + n], out[start:start + n]
            if inverse:
                _ecb(key, src, dst, encrypt=False)
                src = dst
            rows = np.empty((BLOCK_BYTES, -(-n // 8) * 8), np.uint8)
            np.bitwise_xor(src.T, k0[:, None], out=rows[:, :n])
            rows = _permute(rows, windows, start, n, inverse=inverse)
            np.bitwise_xor(rows[:, :n].T, k0, out=dst)
            if not inverse:
                _ecb(key, dst, dst, encrypt=True)

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
