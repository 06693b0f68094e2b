import decimal
import hashlib
import math
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
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
        # 6000 bytes need about 48 kbit of pi, 14,500 digits: the root takes
        # eleven Newton steps, _to_int splits five levels deep, and the
        # split merges Decimals above its int leaves
        l = 1 if seed is None else key_l(random.Random(seed))
        assert 8 * 6000 // 47 > keystream._LEAF_TERMS
        assert 0.3 * 8 * 6000 > keystream._STR_DIGITS << 4
        assert pi_fraction_bytes(l, 6000).data == mp_frac_bytes(l, 6000)


@contextmanager
def unlimited_int_str():
    """Lift the interpreter's limit on int/str conversion digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestToInt:
    @settings(max_examples=40, deadline=None)
    @given(digits=st.integers(1, 50_000), seed=st.integers(0, 2 ** 32),
           form=st.sampled_from(["random", "10^k", "10^k - 1"]))
    @example(digits=50_000, seed=0, form="random")
    @example(digits=keystream._STR_DIGITS << 5, seed=0, form="10^k")
    @example(digits=keystream._STR_DIGITS << 5, seed=0, form="10^k - 1")
    def test_equals_int_of_str(self, digits, seed, form):
        if form == "random":
            rng = random.Random(seed)
            text = str(rng.randrange(1, 10)) + "".join(
                rng.choices("0123456789", k=digits - 1))
        else:
            text = "1" + "0" * digits if form == "10^k" else "9" * digits
        d = Decimal(text)
        with unlimited_int_str():
            assert keystream._to_int(d) == int(str(d))

    @pytest.mark.parametrize("text, expected", [
        ("0", 0), ("0.999", 0), ("12.5", 12), ("1E+3", 1000),
        ("4.2E+600", 42 * 10 ** 599), ("1" * 1200 + ".75", int("1" * 1200))])
    def test_floors_any_exponent(self, text, expected):
        assert keystream._to_int(Decimal(text)) == expected


class TestNewtonKernels:
    @pytest.mark.parametrize("digits", [1, 16, 17, 30, 31, 1000, 20_000])
    def test_inv_sqrt_within_its_bound(self, digits):
        # sqrt(10005) lies in [s, s + 1) / 10^k for s = isqrt(10005 10^2k),
        # so r sqrt(10005) - 1 is bracketed by two exact rationals
        r = Fraction(keystream._inv_sqrt_10005(digits))
        k = digits + 10
        s = math.isqrt(10005 * 100 ** k)
        bound = Fraction(8, 10 ** digits)
        assert -bound < r * s / 10 ** k - 1
        assert r * (s + 1) / 10 ** k - 1 < bound

    @pytest.mark.parametrize(
        "prec", [64, 1000, 20_000, 70_000, 200_000, 400_000])
    def test_pi_fixed_against_mpmath(self, prec):
        pi = keystream._pi_fixed(prec)
        with mpmath.workprec(prec + 64):
            err = abs(mpmath.mpf(pi) - mpmath.ldexp(mpmath.pi, prec))
        # the module docstring bounds an unshifted value by 1.001 ulp
        assert err < 1.001 <= keystream.PI_ERROR_ULPS


class TestDecimalContext:
    COUNT = 3000

    def test_callers_context_untouched(self):
        ctx = decimal.getcontext()
        before = (ctx.prec, ctx.rounding, dict(ctx.flags), dict(ctx.traps))
        pi_fraction_bytes.cache_clear()
        pi_fraction_bytes(key_l(random.Random(14)), self.COUNT)
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.rounding, dict(ctx.flags),
                dict(ctx.traps)) == before

    def test_hostile_context_changes_no_byte(self):
        l = key_l(random.Random(15))
        pi_fraction_bytes.cache_clear()
        expected = pi_fraction_bytes(l, self.COUNT).data
        pi_fraction_bytes.cache_clear()
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = decimal.ROUND_UP
            ctx.traps[decimal.Inexact] = True
            ctx.clear_flags()
            got = pi_fraction_bytes(l, self.COUNT).data
            assert not any(ctx.flags.values())
        assert got == expected == mp_frac_bytes(l, self.COUNT)

    def test_missing_c_decimal_is_a_typed_error(self, tmp_path):
        # _pydecimal alone is quadratic at keystream sizes, so the first
        # keystream request refuses; the CLI maps the error to exit 1
        image = tmp_path / "in.pgm"
        image.write_bytes(b"P5 4 4 255\n" + bytes(range(16)))
        code = (
            'import sys; sys.modules["_decimal"] = None\n'
            "import vpaes\n"
            "from vpaes.cli import main\n"
            "try:\n"
            "    vpaes.pi_fraction_bytes(5, 10)\n"
            "except vpaes.VpaesError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
            f"sys.exit(main(['encrypt', '--in', {str(image)!r}, '--out', "
            f"{str(tmp_path / 'out.vpaes')!r}, '--key', '01' * 16]))\n")
        src = os.path.dirname(os.path.dirname(keystream.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stdout.startswith("VpaesError ")
        assert "_decimal" in out.stdout and "_decimal" in out.stderr
        assert not (tmp_path / "out.vpaes").exists()


class TestPiCache:
    COUNT = 3000  # 24 kbit of fraction: the split merges Decimals

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
