import random

import pytest

from oracles import mp_frac_bytes, pi_fraction_bytes_bbp
from vpaes import keystream
from vpaes.errors import DomainError
from vpaes.keystream import (
    FractionStream,
    Key128,
    key_to_integer,
    pi_fraction_bytes,
    required_byte_count,
    window,
)


class TestKeyToInteger:
    def test_zero_key(self):
        assert key_to_integer(Key128(bytes(16))) == 0

    def test_one(self):
        assert key_to_integer(Key128(bytes(15) + b"\x01")) == 1

    def test_big_endian(self):
        k = Key128(bytes(range(16)))
        assert key_to_integer(k) == int.from_bytes(bytes(range(16)), "big")

    @pytest.mark.parametrize("n", [0, 15, 17])
    def test_key_length_enforced(self, n):
        with pytest.raises(DomainError):
            Key128(bytes(n))


class TestPiFractionBytes:
    def test_first_five_bytes_for_l1(self):
        # frozen from the BBP digit-extraction oracle: pi = 3.243F6A8885...
        s = pi_fraction_bytes(1, 5)
        assert s.data == bytes.fromhex("243f6a8885")
        assert s.data == pi_fraction_bytes_bbp(0, 5)

    def test_first_byte_for_l2(self):
        # frac(2*pi) = 0.28318...; 0.28318... * 256 = 72.49... -> 0x48,
        # frozen from the high-precision oracle
        s = pi_fraction_bytes(2, 1)
        assert s.data == b"\x48"
        assert s.data == mp_frac_bytes(2, 1)

    def test_determinism(self):
        a = pi_fraction_bytes(123456789, 300)
        b = pi_fraction_bytes(123456789, 300)
        assert a.data == b.data

    def test_zero_l_rejected(self):
        with pytest.raises(DomainError):
            pi_fraction_bytes(0, 10)

    def test_bad_count_rejected(self):
        with pytest.raises(DomainError):
            pi_fraction_bytes(1, 0)

    def test_prefix_stability(self):
        short = pi_fraction_bytes(987654321, 40)
        long = pi_fraction_bytes(987654321, 200)
        assert long.data.startswith(short.data)

    def test_bbp_spot_checks_deep_in_the_stream(self):
        s = pi_fraction_bytes(1, 2100)
        for start in (100, 999, 2048):
            assert s.data[start:start + 4] == pi_fraction_bytes_bbp(start, 4)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exactness_against_double_precision_oracle(self, seed):
        rng = random.Random(seed)
        l = rng.getrandbits(128) | (1 << 127)
        count = rng.randrange(500, 2000)
        assert pi_fraction_bytes(l, count).data == mp_frac_bytes(l, count)

    def test_exactness_small_l_long_stream(self):
        assert pi_fraction_bytes(3, 4096).data == mp_frac_bytes(3, 4096)

    def test_guard_doubling_retry(self, monkeypatch):
        # an error bound of 2^80 ulp swamps the first attempt's 64 guard
        # bits, so emission must wait for the doubled guard of 128
        precisions = []
        real_pi_fixed = keystream._pi_fixed

        def counting_pi_fixed(prec):
            precisions.append(prec)
            return real_pi_fixed(prec)

        monkeypatch.setattr(keystream, "PI_ERROR_ULPS", 1 << 80)
        monkeypatch.setattr(keystream, "_pi_fixed", counting_pi_fixed)
        pi_fraction_bytes.cache_clear()
        try:
            stream = pi_fraction_bytes(777, 40)
        finally:
            pi_fraction_bytes.cache_clear()
        assert len(precisions) == 2
        assert precisions[1] - precisions[0] == keystream.GUARD_BITS
        assert stream.data == mp_frac_bytes(777, 40)


class TestWindow:
    def setup_method(self):
        self.stream = pi_fraction_bytes(42, 300)

    def test_block0_uses_bytes_0_to_126(self):
        assert window(self.stream, 0) == self.stream.data[0:127]

    def test_block1_uses_bytes_1_to_127(self):
        assert window(self.stream, 1) == self.stream.data[1:128]

    def test_consecutive_windows_overlap_by_126(self):
        a = window(self.stream, 10)
        b = window(self.stream, 11)
        assert a[1:] == b[:-1]
        assert len(a) == len(b) == 127

    def test_indexing_matches_stream(self):
        j = 57
        w = window(self.stream, j)
        assert all(w[i] == self.stream.data[j + i] for i in range(127))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            window(self.stream, 300 - 126)
        with pytest.raises(DomainError):
            window(self.stream, -1)

    def test_last_valid_window(self):
        j = self.stream.count - 127
        assert len(window(self.stream, j)) == 127


class TestRequiredByteCount:
    def test_one_block_needs_one_window(self):
        assert required_byte_count(1) == 127

    def test_two_blocks(self):
        assert required_byte_count(2) == 128

    def test_57600_blocks(self):
        # (57600 - 1) + 127: the last block's window must be in range
        assert required_byte_count(57600) == 57726

    def test_serves_every_window(self):
        blocks = 9
        s = FractionStream(bytes(required_byte_count(blocks)))
        for j in range(blocks):
            window(s, j)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            required_byte_count(0)
