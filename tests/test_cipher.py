import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIPS_CIPHER, FIPS_KEY, FIPS_PLAIN
from oracles import aes_ecb, aes_ecb_decrypt
from vpaes import cipher
from vpaes.cipher import (
    _decrypt_blocks,
    _encrypt_blocks,
    _inv_mix,
    _inv_mix_columns,
    _mix,
    _mix_columns,
    decrypt_block,
    decrypt_payload,
    decrypt_payload_with_stream,
    derive_permutation_matrix,
    encrypt_block,
    encrypt_payload,
    encrypt_payload_with_stream,
    expand_key,
)
from vpaes.errors import DomainError
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
    coefficients_from_bytes,
    identity_permutation,
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
    # the round loop hands the mix column-major states
    LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize(
        "batch, scalar",
        [(_mix, _mix_columns), (_inv_mix, _inv_mix_columns)],
        ids=["mix", "inv_mix"])
    def test_equals_scalar_row_by_row(self, batch, scalar, layout):
        out = batch(self.LAYOUTS[layout](self.STATES))
        for row, state in zip(out, self.STATES):
            assert row.tobytes() == scalar(state.tobytes())

    @pytest.mark.parametrize("layout", sorted(LAYOUTS) + ["scalar"])
    def test_inv_mix_undoes_mix(self, layout):
        if layout == "scalar":
            for state in self.STATES:
                s = state.tobytes()
                assert _inv_mix_columns(_mix_columns(s)) == s
            return
        states = self.LAYOUTS[layout](self.STATES)
        assert np.array_equal(_inv_mix(_mix(states)), self.STATES)


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

    @pytest.mark.parametrize(
        "kernel, reference",
        [(_encrypt_blocks, aes_ecb), (_decrypt_blocks, aes_ecb_decrypt)],
        ids=["encrypt", "decrypt"])
    def test_identity_permutations_reduce_to_ecb(self, kernel, reference):
        rng = random.Random(37)
        key = bytes(rng.randrange(256) for _ in range(16))
        data = bytes(rng.randrange(256) for _ in range(16 * 120))
        state = np.frombuffer(data, dtype=np.uint8).reshape(120, 16)
        perms = np.tile(np.arange(128, dtype=np.uint8), (120, 1))
        rks = [np.frombuffer(k, dtype=np.uint8)
               for k in expand_key(Key128(key)).keys]
        assert kernel(state, perms, rks).tobytes() == reference(key, data)

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

    def test_multi_chunk_digest(self):
        # frozen byte contract across chunk edges: more than two full
        # chunks and a partial one (digests of the one-pass implementation)
        blocks = 10_007
        assert blocks > 2 * cipher.CHUNK_BLOCKS
        assert blocks % cipher.CHUNK_BLOCKS
        data = hashlib.shake_256(b"vpaes chunk edges").digest(16 * blocks)
        assert hashlib.sha256(encrypt_payload(data, self.KEY)).hexdigest() == (
            "c791a26bee190cbb576c26aca39f067bbf759f7814fe5b446b59ae3796e09f4f")
        assert hashlib.sha256(decrypt_payload(data, self.KEY)).hexdigest() == (
            "b3d062f0c4a3dd95cc92d7ca462b6c9df7545cd4825656d800b081126f505d0d")

    @pytest.mark.parametrize("run", DIRECTIONS, ids=["encrypt", "decrypt"])
    def test_peak_memory_grows_with_the_payload_only(self, run):
        # beyond the output, a payload call holds one chunk's working set,
        # so from 4 to 8 chunks the traced peak grows by the added output
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
