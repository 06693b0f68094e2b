import hashlib
import os
import random
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIPS_CIPHER, FIPS_KEY, FIPS_PLAIN
from oracles import aes_ecb, aes_ecb_decrypt
from vpaes import _host, cipher
from vpaes.cipher import (
    _PAIR_INV_SBOX,
    _PAIR_SBOX,
    INV_SBOX,
    SBOX,
    _bit_rows,
    _decrypt_rows,
    _encrypt_rows,
    _inv_mix,
    _inv_mix_columns,
    _mix,
    _mix_columns,
    _shuffle,
    decrypt_block,
    decrypt_payload,
    decrypt_payload_with_stream,
    derive_permutation_matrix,
    encrypt_block,
    encrypt_payload,
    encrypt_payload_with_stream,
    expand_key,
)
from vpaes.errors import DomainError, VpaesError
from vpaes.imageio import (
    CipherContainer,
    container_bytes,
    pad_payload,
    parse_container,
    unpad_payload,
)
from vpaes.keystream import (
    FractionStream,
    Key128,
    pi_fraction_bytes,
    required_byte_count,
    window,
)
from vpaes.permgen import (
    Permutation,
    apply_to_bits,
    coefficients_from_bytes,
    identity_permutation,
    invert,
    permutation_from_coefficients,
)

IDENT = identity_permutation(128)


def random_perm(rng):
    mapping = list(range(128))
    rng.shuffle(mapping)
    return Permutation(128, tuple(mapping))


class TestExpandKey:
    def test_round_key_0_is_cipher_key(self):
        rk = expand_key(Key128(FIPS_KEY))
        assert rk.keys[0] == FIPS_KEY

    def test_published_walkthrough_last_round_key(self):
        rk = expand_key(Key128(FIPS_KEY))
        assert rk.keys[10] == bytes.fromhex(
            "d014f9a8c9ee2589e13f0cc8b6630ca6")

    def test_zero_key(self):
        rk = expand_key(Key128(bytes(16)))
        assert rk.keys[0] == bytes(16)
        assert len(rk.keys) == 11

    def test_deterministic(self):
        k = Key128(bytes(range(16)))
        assert expand_key(k) == expand_key(k)


class TestEncryptBlock:
    def test_identity_permutation_reduces_to_standard_aes(self):
        rk = expand_key(Key128(FIPS_KEY))
        assert encrypt_block(FIPS_PLAIN, IDENT, rk) == FIPS_CIPHER

    def test_identity_matches_library_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            key = bytes(rng.randrange(256) for _ in range(16))
            block = bytes(rng.randrange(256) for _ in range(16))
            rk = expand_key(Key128(key))
            assert encrypt_block(block, IDENT, rk) == aes_ecb(key, block)

    def test_roundtrip_any_permutation(self):
        rng = random.Random(5)
        rk = expand_key(Key128(bytes(rng.randrange(256) for _ in range(16))))
        for _ in range(300):
            p = random_perm(rng)
            block = bytes(rng.randrange(256) for _ in range(16))
            assert decrypt_block(encrypt_block(block, p, rk), p, rk) == block

    def test_distinct_permutations_give_distinct_ciphertexts(self):
        rng = random.Random(17)
        rk = expand_key(Key128(FIPS_KEY))
        block = bytes(rng.randrange(256) for _ in range(16))
        collisions = 0
        for _ in range(1000):
            p1, p2 = random_perm(rng), random_perm(rng)
            if p1 == p2:
                continue
            if encrypt_block(block, p1, rk) == encrypt_block(block, p2, rk):
                collisions += 1
        assert collisions == 0

    def test_injective_over_sampled_inputs(self):
        rng = random.Random(23)
        rk = expand_key(Key128(FIPS_KEY))
        p = random_perm(rng)
        seen_in = set()
        seen_out = set()
        for _ in range(10_000):
            block = rng.getrandbits(128).to_bytes(16, "big")
            if block in seen_in:
                continue
            seen_in.add(block)
            out = encrypt_block(block, p, rk)
            assert out not in seen_out
            seen_out.add(out)

    def test_block_size_enforced(self):
        rk = expand_key(Key128(FIPS_KEY))
        with pytest.raises(DomainError):
            encrypt_block(bytes(15), IDENT, rk)
        with pytest.raises(DomainError):
            decrypt_block(bytes(17), IDENT, rk)


class TestDecryptBlock:
    def test_identity_reduces_to_standard_aes_decryption(self):
        rng = random.Random(29)
        for _ in range(50):
            key = bytes(rng.randrange(256) for _ in range(16))
            ct = bytes(rng.randrange(256) for _ in range(16))
            rk = expand_key(Key128(key))
            assert decrypt_block(ct, IDENT, rk) == aes_ecb_decrypt(key, ct)

    def test_inverts_fips_vector(self):
        rk = expand_key(Key128(FIPS_KEY))
        assert decrypt_block(FIPS_CIPHER, IDENT, rk) == FIPS_PLAIN


class TestBatchMix:
    # state i holds (k + 17*i) % 256 at position k; 17 is odd, so over the
    # 256 states every position takes every byte value
    STATES = ((np.arange(16) + 17 * np.arange(256)[:, None]) % 256).astype(
        np.uint8)
    # byte rows (row k holds byte k of every state): C-contiguous, or a
    # slice whose row stride includes the bit rows' pad
    LAYOUTS = {
        "C": lambda states: np.ascontiguousarray(states.T),
        "padded": lambda states: np.pad(
            states.T, ((0, 0), (0, cipher._ROW_PAD)))[:, :len(states)]}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize(
        "batch, scalar",
        [(_mix, _mix_columns), (_inv_mix, _inv_mix_columns)],
        ids=["mix", "inv_mix"])
    def test_equals_scalar_row_by_row(self, batch, scalar, layout):
        # column by column: column j of the rows is state j
        rows = self.LAYOUTS[layout](self.STATES)
        out = batch(rows)
        assert out.shape == rows.shape
        for column, state in zip(out.T, self.STATES):
            assert column.tobytes() == scalar(state.tobytes())

    @pytest.mark.parametrize("layout", sorted(LAYOUTS) + ["scalar"])
    def test_inv_mix_undoes_mix(self, layout):
        if layout == "scalar":
            for state in self.STATES:
                s = state.tobytes()
                assert _inv_mix_columns(_mix_columns(s)) == s
            return
        rows = self.LAYOUTS[layout](self.STATES)
        assert np.array_equal(_inv_mix(_mix(rows)), self.STATES.T)


STREAMS = {
    "pi": lambda n: pi_fraction_bytes(777, n),
    # every digit 0: each step selects slot 0
    "00": lambda n: FractionStream(bytes(n)),
    # digit 0 is 127: the first step selects the last live slot itself
    "ff": lambda n: FractionStream(b"\xff" * n),
}


class TestPermutationMatrix:
    @pytest.mark.parametrize("blocks", [1, 40])
    @pytest.mark.parametrize("source", sorted(STREAMS))
    def test_matches_scalar_chain_per_block(self, source, blocks):
        stream = STREAMS[source](required_byte_count(blocks))
        matrix = derive_permutation_matrix(stream, blocks)
        assert matrix.shape == (blocks, 128)
        for j in range(blocks):
            scalar = permutation_from_coefficients(
                coefficients_from_bytes(window(stream, j)))
            assert tuple(matrix[j]) == scalar.mapping

    @pytest.mark.parametrize("start", [1, 127, 4095])
    @pytest.mark.parametrize("source", sorted(STREAMS))
    def test_matches_scalar_chain_from_start(self, source, start):
        blocks = 5
        stream = STREAMS[source](required_byte_count(start + blocks))
        matrix = derive_permutation_matrix(stream, blocks, start)
        assert matrix.shape == (blocks, 128)
        for j in range(blocks):
            scalar = permutation_from_coefficients(
                coefficients_from_bytes(window(stream, start + j)))
            assert tuple(matrix[j]) == scalar.mapping

    def test_stream_too_short_rejected(self):
        stream = pi_fraction_bytes(777, 127)
        with pytest.raises(DomainError):
            derive_permutation_matrix(stream, 2)

    @pytest.mark.parametrize("start", [1, 300])
    def test_stream_length_counts_start_plus_blocks(self, start):
        stream = pi_fraction_bytes(777, required_byte_count(start + 3))
        assert len(derive_permutation_matrix(stream, 3, start)) == 3
        with pytest.raises(DomainError):
            derive_permutation_matrix(
                FractionStream(stream.data[:-1]), 3, start)

    def test_negative_start_rejected(self):
        stream = pi_fraction_bytes(777, 200)
        with pytest.raises(DomainError):
            derive_permutation_matrix(stream, 2, -1)


class TestShuffle:
    # the fused pass: the selection steps run on rows of state bits, and
    # derive_permutation_matrix runs the same steps on position numbers
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(STREAMS)), st.integers(1, 70),
           st.sampled_from([0, 1, 127]), st.integers(0, 2**32))
    def test_equals_gather_through_matrix_and_reverse_undoes(
            self, source, blocks, start, seed):
        stream = STREAMS[source](required_byte_count(start + blocks))
        rows = _bit_rows(blocks)
        rows[:] = np.random.default_rng(seed).integers(
            0, 256, rows.shape, np.uint8)
        before = rows.copy()
        _shuffle(rows, stream, start, blocks)
        matrix = derive_permutation_matrix(stream, blocks, start)
        gathered = np.take_along_axis(
            before[:, :blocks].T, matrix.astype(np.intp), axis=1)
        assert np.array_equal(rows[::-1, :blocks].T, gathered)
        assert np.array_equal(rows[:, blocks:], before[:, blocks:])
        _shuffle(rows, stream, start, blocks, reverse=True)
        assert np.array_equal(rows, before)

    @pytest.fixture(scope="class")
    def chunk_matrices(self):
        blocks = 4096
        streams = {name: make(required_byte_count(blocks))
                   for name, make in STREAMS.items()}
        return {name: (stream, derive_permutation_matrix(stream, blocks))
                for name, stream in streams.items()}

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(STREAMS)), st.integers(0, 4095))
    def test_full_chunk_matches_scalar_chain(self, chunk_matrices, source, j):
        stream, matrix = chunk_matrices[source]
        assert matrix.shape == (4096, 128)
        scalar = permutation_from_coefficients(
            coefficients_from_bytes(window(stream, j)))
        assert tuple(matrix[j]) == scalar.mapping

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(STREAMS)), st.integers(1, 70),
           st.sampled_from([encrypt_payload_with_stream,
                            decrypt_payload_with_stream]))
    def test_stream_one_byte_short_rejected(self, source, blocks, run):
        stream = STREAMS[source](required_byte_count(blocks) - 1)
        with pytest.raises(DomainError):
            run(bytes(16 * blocks), TestPayload.KEY, stream)

    @pytest.mark.parametrize(
        "blocks", sorted({cipher.CHUNK_BLOCKS, *(2**k for k in range(17))}))
    def test_row_stride_is_not_4k_aliased(self, blocks):
        rows = _bit_rows(blocks)
        assert rows.strides[0] % 4096


class TestRowKernels:
    KEYS = expand_key(Key128(bytes(range(1, 17))))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(STREAMS)), st.integers(1, 70),
           st.sampled_from([0, 1, 127]), st.booleans(), st.integers(0, 2**32))
    def test_kernels_equal_scalar_composition(
            self, source, blocks, start, inverse, seed):
        # a kernel takes byte rows after the first round key's XOR and stops
        # before the last one's; the pad columns up to whole uint64 words
        # hold random bytes too, which must not reach the blocks
        stream = STREAMS[source](required_byte_count(start + blocks))
        keys = self.KEYS.keys
        rows = np.random.default_rng(seed).integers(
            0, 256, (16, -(-blocks // 8) * 8), np.uint8)
        if inverse:
            outer = keys[10], keys[0]
            inner = [_inv_mix_columns(k) for k in keys[9:0:-1]]
            kernel, scalar = _decrypt_rows, decrypt_block
        else:
            outer = keys[0], keys[10]
            inner = keys[1:10]
            kernel, scalar = _encrypt_rows, encrypt_block
        out = kernel(rows.copy(), stream, start, blocks, np.frombuffer(
            b"".join(inner), np.uint8).reshape(9, 16, 1))
        assert out.shape == rows.shape
        for j in range(blocks):
            perm = permutation_from_coefficients(
                coefficients_from_bytes(window(stream, start + j)))
            block = bytes(x ^ y for x, y in zip(rows[:, j], outer[0]))
            expected = bytes(x ^ y for x, y in zip(
                scalar(block, perm, self.KEYS), outer[1]))
            assert out[:, j].tobytes() == expected

    @pytest.mark.parametrize("pair, box", [(_PAIR_SBOX, SBOX),
                                           (_PAIR_INV_SBOX, INV_SBOX)],
                             ids=["sbox", "inv_sbox"])
    def test_pair_table_layout(self, pair, box):
        # entry a | b << 8 is box[a] | box[b] << 8 for every byte pair, so a
        # little-endian uint16 view of two byte rows looks up both at once
        index = np.arange(1 << 16)
        a, b = index & 0xFF, index >> 8
        s = np.frombuffer(box, np.uint8).astype(np.uint16)
        assert pair.dtype == np.dtype("<u2")
        assert np.array_equal(pair[a | b << 8], s[a] | s[b] << 8)


# (width, height): 1x1 up to 48x48, or one row or one column of up to 400
SHAPES = st.one_of(
    st.tuples(st.integers(1, 48), st.integers(1, 48)),
    st.tuples(st.integers(1, 400), st.just(1)),
    st.tuples(st.just(1), st.integers(1, 400)))


class TestPayload:
    KEY = Key128((0xFEDCBA9876543210FEDCBA9876543210).to_bytes(16, "big"))

    def test_single_block_uses_window_zero(self):
        data = bytes(range(16))
        stream = pi_fraction_bytes(
            int.from_bytes(self.KEY.data, "big"), required_byte_count(1))
        perm = permutation_from_coefficients(
            coefficients_from_bytes(window(stream, 0)))
        expected = encrypt_block(data, perm, expand_key(self.KEY))
        assert encrypt_payload(data, self.KEY) == expected

    def test_vectorised_path_equals_scalar_composition(self):
        rng = random.Random(31)
        data = bytes(rng.randrange(256) for _ in range(16 * 25))
        stream = pi_fraction_bytes(
            int.from_bytes(self.KEY.data, "big"), required_byte_count(25))
        rk = expand_key(self.KEY)
        perms = [
            permutation_from_coefficients(
                coefficients_from_bytes(window(stream, j)))
            for j in range(25)]
        blocks = [data[16 * j:16 * j + 16] for j in range(25)]
        assert encrypt_payload(data, self.KEY) == b"".join(
            encrypt_block(b, p, rk) for b, p in zip(blocks, perms))
        assert decrypt_payload(data, self.KEY) == b"".join(
            decrypt_block(b, p, rk) for b, p in zip(blocks, perms))

    # the all-0x00 stream gives every block the scalar permutation P00
    P00 = permutation_from_coefficients(coefficients_from_bytes(bytes(127)))

    @pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
    def test_identity_permutations_reduce_to_ecb(self, direction):
        # one permutation for every block: the payload path is AES-128-ECB
        # around one scalar bit permutation
        rng = random.Random(37)
        key = bytes(rng.randrange(256) for _ in range(16))
        data = bytes(rng.randrange(256) for _ in range(16 * 120))
        stream = FractionStream(bytes(required_byte_count(120)))
        rk0 = expand_key(Key128(key)).keys[0]
        blocks = [data[16 * j:16 * j + 16] for j in range(120)]

        def whiten(b):
            return bytes(x ^ y for x, y in zip(b, rk0))

        if direction == "encrypt":
            out = encrypt_payload_with_stream(data, Key128(key), stream)
            expected = [
                aes_ecb(key, whiten(apply_to_bits(self.P00, whiten(b))))
                for b in blocks]
        else:
            out = decrypt_payload_with_stream(data, Key128(key), stream)
            expected = [whiten(apply_to_bits(
                invert(self.P00), whiten(aes_ecb_decrypt(key, b))))
                for b in blocks]
        assert out == b"".join(expected)

    def test_roundtrip(self):
        rng = random.Random(41)
        data = bytes(rng.randrange(256) for _ in range(16 * 200))
        assert decrypt_payload(encrypt_payload(data, self.KEY),
                               self.KEY) == data

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, st.sampled_from([1, 3]),
           st.binary(min_size=16, max_size=16).filter(any),
           st.integers(0, 2**32))
    def test_roundtrip_through_container(self, shape, channels, key, seed):
        width, height = shape
        pixels = random.Random(seed).randbytes(width * height * channels)
        key = Key128(key)
        padded, pad_len = pad_payload(pixels)
        sealed = container_bytes(CipherContainer(
            width, height, channels, pad_len, encrypt_payload(padded, key)))
        c = parse_container(sealed)
        assert (c.width, c.height, c.channels) == (width, height, channels)
        assert unpad_payload(decrypt_payload(c.payload, key),
                             c.pad_len) == pixels

    def test_length_preserved(self):
        data = bytes(16 * 33)
        assert len(encrypt_payload(data, self.KEY)) == len(data)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([-1, 0, 1]),
           st.integers(0, 15), st.integers(1, 255))
    def test_tweak_locality(self, chunk, edge, byte, flip):
        # changing block j changes block j of the output only, in both
        # directions, with j = K-1, K or K+1 for a chunk size K
        blocks = 2 * chunk + 2
        data = bytearray(random.Random(43).randbytes(16 * blocks))
        j = chunk + edge
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher, "CHUNK_BLOCKS", chunk)
            base = [f(bytes(data), self.KEY)
                    for f in (encrypt_payload, decrypt_payload)]
            data[16 * j + byte] ^= flip
            changed = [f(bytes(data), self.KEY)
                       for f in (encrypt_payload, decrypt_payload)]
        for a, b in zip(base, changed):
            for blk in range(blocks):
                same = a[16 * blk:16 * blk + 16] == b[16 * blk:16 * blk + 16]
                assert same == (blk != j)

    def test_deterministic(self):
        data = bytes(range(256))
        assert encrypt_payload(data, self.KEY) == encrypt_payload(
            data, self.KEY)

    def test_empty_payload(self):
        assert encrypt_payload(b"", self.KEY) == b""
        assert decrypt_payload(b"", self.KEY) == b""

    def test_unaligned_payload_rejected(self):
        with pytest.raises(DomainError):
            encrypt_payload(bytes(17), self.KEY)
        with pytest.raises(DomainError):
            decrypt_payload(bytes(15), self.KEY)

    def test_zero_key_rejected_via_keystream(self):
        with pytest.raises(DomainError):
            encrypt_payload(bytes(16), Key128(bytes(16)))


# (chunk size, payload blocks): blocks on either side of one and two chunk
# edges, or anywhere up to 40
CHUNK_CASES = st.integers(1, 9).flatmap(lambda k: st.tuples(
    st.just(k),
    st.one_of(st.sampled_from([k - 1, k, k + 1, 2 * k + 1]).filter(bool),
              st.integers(1, 40))))


class TestChunking:
    KEY = TestPayload.KEY
    DATA = bytes(random.Random(47).randrange(256) for _ in range(16 * 40))
    DIRECTIONS = [encrypt_payload_with_stream, decrypt_payload_with_stream]

    @settings(max_examples=50, deadline=None)
    @given(CHUNK_CASES)
    def test_chunked_output_equals_one_shot(self, case):
        chunk, blocks = case
        data = self.DATA[:16 * blocks]
        stream = pi_fraction_bytes(777, required_byte_count(blocks))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher, "CHUNK_BLOCKS", blocks)
            one_shot = [f(data, self.KEY, stream) for f in self.DIRECTIONS]
            mp.setattr(cipher, "CHUNK_BLOCKS", chunk)
            assert [f(data, self.KEY, stream)
                    for f in self.DIRECTIONS] == one_shot

    def test_multi_chunk_digest(self, monkeypatch, forks):
        # frozen byte contract across chunk edges: more than two full
        # chunks and a partial one (digests of the one-pass implementation),
        # in one process and split between two
        blocks = 10_007
        assert blocks > 2 * cipher.CHUNK_BLOCKS
        assert blocks % cipher.CHUNK_BLOCKS
        data = hashlib.shake_256(b"vpaes chunk edges").digest(16 * blocks)
        monkeypatch.setattr(cipher, "_SPLIT_BLOCKS", blocks)
        digests = set()
        for cpus in (1, 2):
            monkeypatch.setattr(_host, "available_cpus", lambda: cpus)
            digests.add(tuple(hashlib.sha256(run(data, self.KEY)).hexdigest()
                              for run in (encrypt_payload, decrypt_payload)))
        assert digests == {(
            "c791a26bee190cbb576c26aca39f067bbf759f7814fe5b446b59ae3796e09f4f",
            "b3d062f0c4a3dd95cc92d7ca462b6c9df7545cd4825656d800b081126f505d0d",
        )}
        assert len(forks) == 2

    @pytest.mark.parametrize("run", DIRECTIONS, ids=["encrypt", "decrypt"])
    def test_peak_memory_grows_with_the_payload_only(self, monkeypatch, run):
        # beyond the output, a payload call holds one chunk's working set,
        # so from 4 to 8 chunks the traced peak grows by the added output
        # (on one process: tracemalloc cannot see the split's shared output)
        monkeypatch.setattr(_host, "available_cpus", lambda: 1)
        chunk = cipher.CHUNK_BLOCKS
        rng = np.random.default_rng(53)
        peaks = []
        for blocks in (4 * chunk, 8 * chunk):
            stream = FractionStream(rng.integers(
                0, 256, required_byte_count(blocks), np.uint8).tobytes())
            data = rng.integers(0, 256, 16 * blocks, np.uint8).tobytes()
            tracemalloc.start()
            try:
                run(data, self.KEY, stream)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * 16 * 4 * chunk

    @pytest.mark.parametrize("run", DIRECTIONS, ids=["encrypt", "decrypt"])
    def test_peak_memory_beyond_input_and_output(self, monkeypatch, run):
        # beyond the output array and the returned bytes, a call holds one
        # chunk's bit rows, slot table and round states: about 1 MiB (on
        # one process, as above)
        monkeypatch.setattr(_host, "available_cpus", lambda: 1)
        blocks = 4 * cipher.CHUNK_BLOCKS
        rng = np.random.default_rng(59)
        stream = FractionStream(rng.integers(
            0, 256, required_byte_count(blocks), np.uint8).tobytes())
        data = rng.integers(0, 256, 16 * blocks, np.uint8).tobytes()
        tracemalloc.start()
        try:
            run(data, self.KEY, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * len(data) <= 2 * 2**20


class TestTwoProcesses:
    """From _SPLIT_BLOCKS blocks on, with two CPUs, _run_blocks forks one
    helper for the second half of the payload. Every block runs the same
    kernel on the same inputs either way, so the bytes cannot change."""

    KEY = TestPayload.KEY
    DIRECTIONS = TestChunking.DIRECTIONS

    @staticmethod
    def payload(blocks):
        rng = np.random.default_rng(blocks)
        stream = FractionStream(rng.integers(
            0, 256, required_byte_count(blocks), np.uint8).tobytes())
        return rng.integers(0, 256, 16 * blocks, np.uint8).tobytes(), stream

    @pytest.mark.parametrize("blocks", [
        cipher._SPLIT_BLOCKS - 1, cipher._SPLIT_BLOCKS,
        cipher._SPLIT_BLOCKS + 1, 2 * cipher.CHUNK_BLOCKS - 1,
        2 * cipher.CHUNK_BLOCKS + 1, 10_007])
    @pytest.mark.parametrize("run", DIRECTIONS, ids=["encrypt", "decrypt"])
    def test_split_equals_one_process(self, monkeypatch, forks, run, blocks):
        data, stream = self.payload(blocks)
        monkeypatch.setattr(_host, "available_cpus", lambda: 1)
        one = run(data, self.KEY, stream)
        assert not forks
        monkeypatch.setattr(_host, "available_cpus", lambda: 2)
        assert run(data, self.KEY, stream) == one
        assert len(forks) == (blocks >= cipher._SPLIT_BLOCKS)
        # below the threshold too, once it is lowered
        monkeypatch.setattr(cipher, "_SPLIT_BLOCKS", 2)
        assert run(data, self.KEY, stream) == one
        assert forks[-1] == 1  # only the calling thread was alive

    def test_no_fork_below_threshold_on_one_cpu_or_beside_a_thread(
            self, monkeypatch, forks):
        data, stream = self.payload(cipher._SPLIT_BLOCKS)
        monkeypatch.setattr(_host, "available_cpus", lambda: 2)
        encrypt_payload_with_stream(data[:-16], self.KEY, stream)
        assert not forks
        monkeypatch.setattr(_host, "available_cpus", lambda: 1)
        encrypt_payload_with_stream(data, self.KEY, stream)
        assert not forks
        monkeypatch.setattr(_host, "available_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            encrypt_payload_with_stream(data, self.KEY, stream)
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert not forks
        encrypt_payload_with_stream(data, self.KEY, stream)
        assert forks == [1]

    def test_no_fork_on_a_platform_without_fork(self, monkeypatch, forks):
        data, stream = self.payload(cipher._SPLIT_BLOCKS)
        monkeypatch.setattr(_host, "available_cpus", lambda: 1)
        one = encrypt_payload_with_stream(data, self.KEY, stream)
        monkeypatch.setattr(_host, "available_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert encrypt_payload_with_stream(data, self.KEY, stream) == one
        assert not forks

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    @pytest.mark.parametrize("inverse", [False, True],
                             ids=["encrypt", "decrypt"])
    def test_failure_in_either_half(self, monkeypatch, forks, failing,
                                    inverse):
        class HalfFailed(Exception):
            pass

        caller = os.getpid()
        name = "_decrypt_rows" if inverse else "_encrypt_rows"
        kernel = getattr(cipher, name)

        def flaky(*args):
            if (os.getpid() == caller) == (failing == "caller"):
                raise HalfFailed(failing)
            return kernel(*args)

        data, stream = self.payload(cipher._SPLIT_BLOCKS)
        monkeypatch.setattr(_host, "available_cpus", lambda: 2)
        monkeypatch.setattr(cipher, name, flaky)
        # a helper's failure arrives as VpaesError, with no bytes returned;
        # the caller's own exception passes through once the helper is
        # reaped (the fixture checks that none is left)
        error, match = VpaesError, r"exit code 1\)"
        if failing == "caller":
            error, match = HalfFailed, "caller"
        try:
            with pytest.raises(error, match=match):
                cipher._run_blocks(data, self.KEY, stream, inverse)
        finally:
            if os.getpid() != caller:  # a helper that did not leave by
                os._exit(99)  # os._exit must not run on inside pytest
        assert len(forks) == 1

    def test_helper_killed_by_a_signal(self, monkeypatch, forks):
        # with no byte count, the wait status alone tells a half-written
        # output from a whole one
        caller = os.getpid()
        kernel = cipher._encrypt_rows

        def killed(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return kernel(*args)

        data, stream = self.payload(cipher._SPLIT_BLOCKS)
        monkeypatch.setattr(_host, "available_cpus", lambda: 2)
        monkeypatch.setattr(cipher, "_encrypt_rows", killed)
        with pytest.raises(VpaesError, match=f"exit code -{signal.SIGKILL}"):
            cipher._run_blocks(data, self.KEY, stream)
        assert len(forks) == 1
