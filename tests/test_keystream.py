import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# the acceptance suite's reference key
REFERENCE_KEY = Key128(bytes.fromhex("0123456789abcdeffedcba9876543210"))
NEWTON_BITS = keystream._NEWTON_BITS


@pytest.fixture
def pi_calls(monkeypatch):
    """Precisions of every _pi_fixed call, starting from cleared caches."""
    calls = []
    real_pi_fixed = keystream._pi_fixed

    def counting_pi_fixed(prec):
        calls.append(prec)
        return real_pi_fixed(prec)

    monkeypatch.setattr(keystream, "_pi_fixed", counting_pi_fixed)
    pi_fraction_bytes.cache_clear()
    yield calls
    pi_fraction_bytes.cache_clear()


def key_l(rng):
    """A random full 128-bit key integer (top bit set)."""
    return rng.getrandbits(128) | (1 << 127)


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


    def test_byte_contract_digest(self):
        # sha256 taken from an earlier, Machin-arctangent computation of
        # pi: any change to pi that alters a byte fails here
        data = pi_fraction_bytes(key_to_integer(REFERENCE_KEY), 20_000).data
        assert hashlib.sha256(data).hexdigest() == (
            "50d2b94c66783d406675fa42921a5d96e2c5e5378ea472095682c9fea3f68ea6")

    @pytest.mark.parametrize("seed", [None, 4, 5])
    def test_exactness_above_newton_threshold(self, seed):
        # 6000 bytes need about 48 kbit of pi: the division and the square
        # root both run their Newton iterations
        l = 1 if seed is None else key_l(random.Random(seed))
        assert 8 * 6000 > 2 * NEWTON_BITS
        assert pi_fraction_bytes(l, 6000).data == mp_frac_bytes(l, 6000)


def _operand_sizes():
    return [NEWTON_BITS - 1, NEWTON_BITS, NEWTON_BITS + 1, 3 * NEWTON_BITS]


class TestNewtonKernels:
    @pytest.mark.parametrize("bits", _operand_sizes())
    def test_div_equals_floor_division(self, bits):
        rng = random.Random(bits)
        for d_bits, q_bits in ((bits, bits), (bits, 3 * bits),
                               (3 * bits, bits), (bits + 40, bits)):
            d = rng.getrandbits(d_bits) | (1 << (d_bits - 1))
            num = rng.getrandbits(d_bits + q_bits)
            assert keystream._div(num, d) == num // d

    @pytest.mark.parametrize("bits", _operand_sizes())
    def test_div_edge_cases(self, bits):
        rng = random.Random(bits + 1)
        d = rng.getrandbits(bits) | (1 << (bits - 1))
        q = rng.getrandbits(bits + 7) | (1 << (bits + 6))
        cases = [(d - 1, d), (0, d), (q * d, d), (q * d - 1, d),
                 (q * d + d - 1, d), (q << bits, 1 << bits),
                 ((q << bits) - 1, 1 << bits), (q * d, q)]
        for num, den in cases:
            assert keystream._div(num, den) == num // den

    @pytest.mark.parametrize("bits", _operand_sizes())
    def test_reciprocal_within_a_few_units(self, bits):
        # the remainder correction makes _div exact for any reciprocal; a
        # close one keeps that correction to a few cheap units
        rng = random.Random(bits + 3)
        for d_bits in (bits // 2, bits, 4 * bits):
            d = rng.getrandbits(d_bits) | (1 << (d_bits - 1))
            exact = (1 << (d_bits + bits)) // d
            assert abs(keystream._reciprocal(d, bits) - exact) <= 4

    def test_div_runs_newton_above_threshold(self, monkeypatch):
        calls = []
        real = keystream._reciprocal
        monkeypatch.setattr(keystream, "_reciprocal",
                            lambda d, k: calls.append(k) or real(d, k))
        rng = random.Random(9)
        num = rng.getrandbits(6 * NEWTON_BITS)
        d = rng.getrandbits(3 * NEWTON_BITS) | 1
        assert keystream._div(num, d) == num // d
        assert max(calls) > 2 * NEWTON_BITS and len(calls) >= 3

    @pytest.mark.parametrize("bits", _operand_sizes())
    def test_sqrtrem_equals_math_isqrt(self, bits):
        def expected(m):
            s = math.isqrt(m)
            return s, m - s * s

        rng = random.Random(bits + 2)
        for m_bits in (2 * bits - 1, 2 * bits, 2 * bits + 1, 5 * bits):
            m = rng.getrandbits(m_bits) | (1 << (m_bits - 1))
            s = math.isqrt(m)
            for case in (m, s * s, s * s - 1, (s + 1) ** 2 - 1):
                assert keystream._sqrtrem(case) == expected(case)
        assert keystream._sqrtrem(0) == (0, 0)
        assert keystream._sqrtrem(1) == (1, 0)

    @pytest.mark.parametrize("prec", [64, 1000, 20_000, 70_000, 200_000])
    def test_pi_fixed_against_mpmath(self, prec):
        pi = keystream._pi_fixed(prec)
        with mpmath.workprec(prec + 64):
            err = abs(mpmath.mpf(pi) - mpmath.ldexp(mpmath.pi, prec))
        # the module docstring bounds an unshifted value by 1.04 ulp
        assert err < 1.04 <= keystream.PI_ERROR_ULPS


class TestPiCache:
    COUNT = 3000  # 24 kbit of fraction: above the Newton threshold

    def test_cache_clear_makes_the_next_call_compute_pi(self, pi_calls):
        pi_fraction_bytes(5, 100)
        pi_fraction_bytes(6, 100)
        assert len(pi_calls) == 1
        pi_fraction_bytes.cache_clear()
        pi_fraction_bytes(6, 100)
        assert len(pi_calls) == 2

    def test_second_key_at_same_count_computes_no_pi(self, pi_calls):
        # a short key first: it still fills the cache at a full key's
        # precision, so the 128-bit keys after it are served by shifts
        rng = random.Random(11)
        short_key = rng.getrandbits(100) | (1 << 99)
        first = pi_fraction_bytes(short_key, self.COUNT)
        second = pi_fraction_bytes(key_l(rng), self.COUNT)
        third = pi_fraction_bytes(key_l(rng), self.COUNT)
        assert pi_calls == [8 * self.COUNT + 128 + keystream.GUARD_BITS]
        assert first.data != second.data != third.data
        assert first.data == mp_frac_bytes(short_key, self.COUNT)

    def test_shorter_request_by_shift_equals_fresh(self, pi_calls):
        l = key_l(random.Random(12))
        pi_fraction_bytes(l, self.COUNT)
        shifted = pi_fraction_bytes(l + 1, self.COUNT // 3)
        assert len(pi_calls) == 1
        pi_fraction_bytes.cache_clear()
        fresh = pi_fraction_bytes(l + 1, self.COUNT // 3)
        assert len(pi_calls) == 2
        assert shifted.data == fresh.data

    def test_longer_request_recomputes_and_replaces(self, pi_calls):
        l = key_l(random.Random(13))
        pi_fraction_bytes(l, self.COUNT // 3)
        pi_fraction_bytes(l, self.COUNT)
        assert len(pi_calls) == 2 and pi_calls[1] > pi_calls[0]
        assert keystream._pi_cache[0] == pi_calls[1]
        pi_fraction_bytes(l + 1, self.COUNT // 2)
        assert len(pi_calls) == 2


class TestStreamProperties:
    @settings(max_examples=100, deadline=None)
    @given(l=st.integers(1, (1 << 128) - 1), n=st.integers(1, 700),
           data=st.data())
    def test_prefix_rule(self, l, n, data):
        m = data.draw(st.integers(1, n))
        assert pi_fraction_bytes(l, n).data[:m] == pi_fraction_bytes(l, m).data

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, (1 << 160) - 1), big=st.integers(2, 4000),
           data=st.data())
    def test_shifted_cached_pi_equals_fresh(self, l, big, data):
        count = data.draw(st.integers(1, big))
        pi_fraction_bytes.cache_clear()
        try:
            pi_fraction_bytes(1, big)
            shifted = pi_fraction_bytes(l, count)
            pi_fraction_bytes.cache_clear()
            fresh = pi_fraction_bytes(l, count)
        finally:
            pi_fraction_bytes.cache_clear()
        assert shifted.data == fresh.data


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
