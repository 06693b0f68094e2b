import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image, text_style_image
from oracles import brute_spectral
import vpaes
from vpaes import _host, randstat
from vpaes.errors import DomainError, PreconditionError
from vpaes.imageio import CipherContainer, ImageBuffer
from vpaes.randstat import TestReport as StatReport
from vpaes.randstat import (
    PairSample,
    ToneHistogram,
    chi_square_exact_tail,
    chi_square_tone_test,
    channel_bits,
    correlation,
    entropy,
    erfc,
    phi,
    plaintext_selection_score,
    sample_adjacent_pairs,
    sensitivity_correlation,
    spectral_dft_test,
    tone_histogram,
)


def hist_from_counts(counts, channel="red"):
    return ToneHistogram(channel, np.asarray(counts, dtype=np.int64))


def pairs(xs, ys):
    return PairSample("horizontal", "red",
                      np.asarray(xs, dtype=np.uint8),
                      np.asarray(ys, dtype=np.uint8), seed=0)


class TestSampling:
    def test_two_by_one_horizontal_has_single_pair(self):
        img = ImageBuffer(2, 1, 1, bytes([9, 200]))
        s = sample_adjacent_pairs(img, "horizontal", "gray", count=1, seed=5)
        assert (s.xs[0], s.ys[0]) == (9, 200)

    def test_diagonal_never_starts_in_last_row_or_column(self):
        width, height = 7, 5
        # encode position into the pixel value to recover sampled bases
        data = bytes((r * width + c) % 256
                     for r in range(height) for c in range(width))
        img = ImageBuffer(width, height, 1, data)
        s = sample_adjacent_pairs(img, "diagonal", "gray", count=500, seed=1)
        for x, y in zip(s.xs, s.ys):
            row, col = divmod(int(x), width)
            assert row < height - 1 and col < width - 1
            assert int(y) == (row + 1) * width + (col + 1)

    def test_directions_step_correctly(self):
        img = random_image(9, 9, 3, seed=3)
        arr = np.frombuffer(img.data, np.uint8).reshape(9, 9, 3)
        for direction, (dr, dc) in [("horizontal", (0, 1)),
                                    ("vertical", (1, 0)),
                                    ("diagonal", (1, 1))]:
            s = sample_adjacent_pairs(img, direction, "green", 200, seed=8)
            plane = arr[:, :, 1]
            positions = {(r, c) for r in range(9 - dr) for c in range(9 - dc)}
            observed = set()
            for x, y in zip(s.xs, s.ys):
                matches = {(r, c) for (r, c) in positions
                           if plane[r, c] == x and plane[r + dr, c + dc] == y}
                assert matches
                observed |= matches
            assert observed  # at least some positions uniquely identified

    def test_seed_reproducibility(self):
        img = random_image(16, 16, 3, seed=4)
        a = sample_adjacent_pairs(img, "vertical", "blue", 100, seed=77)
        b = sample_adjacent_pairs(img, "vertical", "blue", 100, seed=77)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_one_by_one_image_rejected(self):
        img = ImageBuffer(1, 1, 1, b"\x00")
        for direction in ("horizontal", "vertical", "diagonal"):
            with pytest.raises(PreconditionError):
                sample_adjacent_pairs(img, direction, "gray", 10)

    def test_unknown_direction_and_channel(self):
        img = random_image(4, 4, 3, seed=5)
        with pytest.raises(DomainError):
            sample_adjacent_pairs(img, "antidiagonal", "red", 10)
        with pytest.raises(DomainError):
            sample_adjacent_pairs(img, "horizontal", "gray", 10)


class TestCorrelation:
    def test_perfect_positive(self):
        r = correlation(pairs(range(256), range(256)))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        r = correlation(pairs(range(256), [255 - i for i in range(256)]))
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_three_pair_example_against_direct_arithmetic(self):
        # exact rational evaluation of the 1/M-normalised formula
        xs, ys = [1, 2, 3], [2, 4, 5]
        mean_x, mean_y = Fraction(6, 3), Fraction(11, 3)
        cov = sum((Fraction(x) - mean_x) * (Fraction(y) - mean_y)
                  for x, y in zip(xs, ys)) / 3
        var_x = sum((Fraction(x) - mean_x) ** 2 for x in xs) / 3
        var_y = sum((Fraction(y) - mean_y) ** 2 for y in ys) / 3
        expected = float(cov) / math.sqrt(float(var_x) * float(var_y))
        r = correlation(pairs(xs, ys))
        assert r == pytest.approx(expected, abs=1e-12)
        assert r == pytest.approx(0.9819805060619659, abs=1e-10)

    def test_zero_variance_is_an_error_not_nan(self):
        with pytest.raises(PreconditionError, match="zero variance"):
            correlation(pairs([5, 5, 5], [1, 2, 3]))
        with pytest.raises(PreconditionError, match="zero variance"):
            correlation(pairs([1, 2, 3], [7, 7, 7]))

    def test_symmetry(self):
        xs = [3, 1, 4, 1, 5, 9, 2, 6]
        ys = [2, 7, 1, 8, 2, 8, 1, 8]
        assert correlation(pairs(xs, ys)) == pytest.approx(
            correlation(pairs(ys, xs)), abs=1e-14)

    def test_affine_invariance(self):
        xs = [3, 1, 4, 1, 5, 9, 2, 6]
        ys = [2, 7, 1, 8, 2, 8, 1, 8]
        scaled = [2 * y + 10 for y in ys]
        assert correlation(pairs(xs, ys)) == pytest.approx(
            correlation(pairs(xs, scaled)), abs=1e-12)


class TestEntropy:
    def test_uniform_is_exactly_eight(self):
        assert entropy(hist_from_counts([17] * 256)) == 8.0

    def test_single_bin_is_zero(self):
        counts = [0] * 256
        counts[77] = 1234
        assert entropy(hist_from_counts(counts)) == 0.0

    def test_two_equal_bins_is_one_bit(self):
        counts = [0] * 256
        counts[0] = counts[255] = 500
        assert entropy(hist_from_counts(counts)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            entropy(hist_from_counts([0] * 256))

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            counts = rng.integers(0, 1000, size=256)
            if counts.sum() == 0:
                continue
            h = entropy(hist_from_counts(counts))
            assert 0.0 <= h <= 8.0


class TestPhiErfc:
    def test_phi_zero(self):
        assert phi(0.0) == 0.5

    def test_erfc_zero(self):
        assert erfc(0.0) == 1.0

    def test_erfc_one_frozen_from_high_precision_oracle(self):
        assert erfc(1.0) == pytest.approx(0.15729920705028513, abs=1e-15)
        with mpmath.workprec(200):
            reference = float(mpmath.erfc(1))
        assert erfc(1.0) == pytest.approx(reference, abs=1e-15)

    def test_identity_on_grid(self):
        zs = np.linspace(-8.0, 8.0, 321)
        worst = max(abs(erfc(z / math.sqrt(2)) - 2.0 * (1.0 - phi(z)))
                    for z in zs)
        assert worst <= 1e-10

    def test_phi_monotone(self):
        zs = np.linspace(-6, 6, 200)
        values = [phi(z) for z in zs]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSpectral:
    def test_alternating_sequence_matches_brute_oracle(self):
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 1024)
        d_oracle, p_oracle = brute_spectral(bits.tolist())
        report = spectral_dft_test(bits)
        assert report.statistic == pytest.approx(d_oracle, abs=1e-9)
        assert report.p_value == pytest.approx(p_oracle, rel=1e-9, abs=1e-30)
        # every peak is at the excluded Nyquist bin, so N1 maxes out and the
        # periodic sequence is (correctly) rejected
        assert report.decision == "rejected"

    def test_random_bits_match_brute_oracle(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=1024, dtype=np.uint8)
        d_oracle, p_oracle = brute_spectral(bits.tolist())
        report = spectral_dft_test(bits)
        assert report.statistic == pytest.approx(d_oracle, abs=1e-6)
        assert report.p_value == pytest.approx(p_oracle, rel=1e-6, abs=1e-30)

    def test_constant_zero_equals_constant_one(self):
        zeros = spectral_dft_test(np.zeros(2048, dtype=np.uint8))
        ones = spectral_dft_test(np.ones(2048, dtype=np.uint8))
        assert zeros.statistic == ones.statistic
        assert zeros.p_value == ones.p_value

    def test_complement_invariance(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=3000, dtype=np.uint8)
        assert spectral_dft_test(bits).statistic == spectral_dft_test(
            1 - bits).statistic

    def test_odd_length_drops_last_bit(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=2049, dtype=np.uint8)
        assert (spectral_dft_test(bits).statistic
                == spectral_dft_test(bits[:-1]).statistic)

    def test_too_short_rejected(self):
        with pytest.raises(PreconditionError):
            spectral_dft_test(np.zeros(999, dtype=np.uint8))

    @pytest.mark.parametrize("value", [256, 0.7, -1, 2, np.nan])
    def test_non_bits_rejected(self, value):
        # a uint8 cast would turn 256, 0.7 and nan into 0 and -1 into 255
        bits = np.zeros(2000)
        bits[[0, 1500]] = [1, value]
        with pytest.raises(DomainError, match="0s and 1s"):
            spectral_dft_test(bits)
        with pytest.raises(DomainError, match="0s and 1s"):
            spectral_dft_test(np.full(2000, value))

    def test_bool_and_float_bits_equal_uint8(self):
        bits = np.random.default_rng(15).integers(0, 2, 2000, np.uint8)
        expected = spectral_dft_test(bits).statistic
        for other in (bits.astype(bool), bits.astype(float), bits.tolist()):
            assert spectral_dft_test(other).statistic == expected

    def test_frozen_values_and_traced_peak(self):
        # a fixed 2^21-bit input: N1 and d are frozen, and the traced peak
        # stays near one float64 buffer of its length (the four-step
        # kernel's half spectrum; measured 1.13 of them); one n-point rfft
        # of the +/-1 sequence peaked at 2.0
        bits = np.unpackbits(np.frombuffer(hashlib.shake_256(
            b"vpaes spectral peak").digest(2**18), dtype=np.uint8))
        tracemalloc.start()
        try:
            report = spectral_dft_test(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.extras["n1"] == 996_107
        assert report.statistic == pytest.approx(-0.25473832536910546,
                                                 rel=1e-12)
        assert peak <= 1.2 * 8 * len(bits)


def direct_low_peaks(bits):
    """N1 from one n-point rfft of the +/-1 sequence: the spectral test's
    count before the four-step kernel, kept as its reference."""
    n = len(bits) - len(bits) % 2
    x = np.asarray(bits[:n]) * 2.0 - 1.0
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    return int(np.count_nonzero(
        np.abs(np.fft.rfft(x)[1:n // 2]) < threshold))


def spectral_n1(bits):
    return spectral_dft_test(bits).extras["n1"]


class TestSpectralKernel:
    """The four-step count equals the direct rfft count. With n = n1*n2
    and n1 the largest divisor <= sqrt(n), the lengths below cover n1 = 2,
    odd n1, a prime n1, n1 = n2, and image-channel lengths 8*w*h."""

    def test_every_length_1000_to_1200(self):
        rng = np.random.default_rng(20)
        for length in range(1000, 1201):
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            assert spectral_n1(bits) == direct_low_peaks(bits), length

    @pytest.mark.parametrize("length", [
        2 * 1009,  # 2p: n1 = 2, n2 prime
        2 * 104_729,  # 2p with a large prime: n1 = 2
        1026,  # odd n1 = 27, n2 = 38
        2 * 211 ** 2,  # 2p^2: n1 = p = 211 (odd prime), n2 = 2p
        1018 ** 2,  # (2p)^2: n1 = n2 = 1018
        1009 ** 2,  # odd p^2: the last bit drops, n = 1008 * 1010
    ])
    def test_factor_shapes(self, length):
        bits = np.random.default_rng(length).integers(0, 2, length, np.uint8)
        assert spectral_n1(bits) == direct_low_peaks(bits)

    @pytest.mark.parametrize("width,height", [
        (64, 64), (97, 103), (333, 500), (256, 192), (1021, 3)])
    def test_image_channel_lengths(self, width, height):
        noise = random_image(width, height, 3, seed=width)
        page = text_style_image(width, height)
        for img in (noise, page):
            for ch in ("red", "blue"):
                bits = channel_bits(img, ch)
                assert spectral_n1(bits) == direct_low_peaks(bits)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1000, 60_000), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 0.1, 0.01]))
    def test_matches_direct_rfft(self, length, seed, density):
        # sparse sequences too: their spectra sit far from white noise
        bits = (np.random.default_rng(seed).random(length)
                < density).astype(np.uint8)
        assert spectral_n1(bits) == direct_low_peaks(bits)


class TestSpectralParts:
    """The kernel deals each stage's batches out to _part_count(n, n1)
    threads. First-stage batches fill disjoint columns and second-stage
    batches return integer counts, so no part count may change N1."""

    @pytest.mark.parametrize("length", [
        2**18 - 8,  # just below the 2^18 bits of one part
        2**18 + 8,
        2**19,  # where a second part starts
        2 * 211 ** 2,  # odd n1 = 211
        "frozen",  # the 2^21-bit input of test_frozen_values_and_traced_peak
    ])
    def test_part_count_changes_nothing(self, monkeypatch, length):
        if length == "frozen":
            bits = np.unpackbits(np.frombuffer(hashlib.shake_256(
                b"vpaes spectral peak").digest(2**18), dtype=np.uint8))
        else:
            bits = np.random.default_rng(length).integers(
                0, 2, length, np.uint8)
        counts = []
        before = threading.active_count()
        for parts in (1, 2, 3):  # three parts split the batches unevenly
            monkeypatch.setattr(randstat, "_part_count", lambda n, n1: parts)
            counts.append(spectral_n1(bits))
            assert threading.active_count() == before  # helpers joined
        assert counts == [direct_low_peaks(bits)] * 3

    def test_part_count(self, monkeypatch):
        lengths = (1000, 2**19 - 2, 2**19, 2**21)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert [randstat._part_count(n, 16) for n in lengths] == [1, 1, 2, 2]
        # a short first stage (n1 < 16) stays on one thread at any length
        assert [randstat._part_count(2**21, n1) for n1 in (2, 8, 15, 1024)
                ] == [1, 1, 1, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert [randstat._part_count(n, 16) for n in lengths] == [1, 1, 1, 1]
        # without an affinity mask the CPU count bounds the parts
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert randstat._part_count(2**21, 1024) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert randstat._part_count(2**21, 1024) == 1

    @pytest.mark.parametrize("stage", ["rfft", "fft"])
    @pytest.mark.parametrize("failing, raised", [
        ("helper", "helper"), ("caller", "caller"),
        ("both", "caller"),  # the lowest part's error wins
    ])
    def test_part_error_reaches_caller(self, monkeypatch, stage, failing,
                                       raised):
        class PartFailed(Exception):
            pass

        transform = getattr(np.fft, stage)
        main = threading.main_thread()

        def flaky(x):
            on_caller = threading.current_thread() is main
            if failing == "both" or on_caller == (failing == "caller"):
                raise PartFailed("caller" if on_caller else "helper")
            return transform(x)

        bits = np.random.default_rng(30).integers(0, 2, 2**19, np.uint8)
        monkeypatch.setattr(randstat, "_part_count", lambda n, n1: 2)
        before = threading.active_count()
        monkeypatch.setattr(np.fft, stage, flaky)
        with pytest.raises(PartFailed, match=raised):
            spectral_dft_test(bits)
        assert threading.active_count() == before

    def test_thread_that_cannot_start(self, monkeypatch):
        # the second helper of three parts fails to start: its error reaches
        # the caller, and the helper that did start is joined first
        class StartFailed(RuntimeError):
            pass

        start = threading.Thread.start
        started = []

        def flaky_start(thread):
            if started:
                raise StartFailed("cannot start part 2")
            started.append(thread)
            start(thread)

        ran = []

        def work(part):
            time.sleep(0.05)  # still running when part 2 fails to start
            ran.append(part)

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", flaky_start)
        with pytest.raises(StartFailed, match="part 2"):
            _host.in_parts(3, work)
        assert threading.active_count() == before
        assert ran == [1]  # part 1 ran to its end; parts 0 and 2 never ran

    def test_more_parts_than_cores_under_fast_switching(self, monkeypatch):
        # four parts on at most two cores, with the interpreter switching
        # threads every 10 us: a part that lost or doubled a batch would
        # change the count
        bits = np.random.default_rng(32).integers(0, 2, 2**18, np.uint8)
        expected = direct_low_peaks(bits)
        monkeypatch.setattr(randstat, "_part_count", lambda n, n1: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            counts = [spectral_n1(bits) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert counts == [expected] * 5


class TestChiSquareTone:
    def test_uniform_histogram_accepted_with_p_one(self):
        report = chi_square_tone_test(hist_from_counts([10] * 256))
        assert report.statistic == 0.0
        assert report.p_value == pytest.approx(1.0, abs=1e-12)
        assert report.decision == "accepted"

    def test_single_bin_mass_rejected(self):
        counts = [0] * 256
        counts[0] = 2560
        report = chi_square_tone_test(hist_from_counts(counts))
        # direct arithmetic: 255 empty bins contribute (0-10)^2/10 each,
        # the loaded bin (2560-10)^2/10
        assert report.statistic == pytest.approx(255 * 10 + 2550 ** 2 / 10)
        assert report.statistic == pytest.approx(652800.0)
        assert report.decision == "rejected"

    def test_p_value_monotone_decreasing_in_statistic(self):
        # shifts chosen so the statistic sweeps the informative z range;
        # far below it the p-value saturates at 1.0 in double precision
        previous_p = 2.0
        previous_stat = -1.0
        for shift in (48, 56, 64, 80, 96):
            counts = [10] * 256
            counts[0] += shift
            report = chi_square_tone_test(hist_from_counts(counts))
            assert report.statistic > previous_stat
            assert report.p_value < previous_p
            previous_p, previous_stat = report.p_value, report.statistic

    def test_small_total_rejected(self):
        with pytest.raises(PreconditionError):
            chi_square_tone_test(hist_from_counts([9] * 256))

    def test_exact_tail_reported_alongside(self):
        counts = [10] * 256
        counts[0] += 30
        report = chi_square_tone_test(hist_from_counts(counts))
        assert "p_value_exact_chi2" in report.extras
        assert 0.0 <= report.extras["p_value_exact_chi2"] <= 1.0


class TestChiSquareExactTail:
    # 307.61 and 324.78 are the normal-approximation thresholds of criteria
    # 7a and 7b; at 2000, deep in the tail, Q is about 1e-267
    GRID = (0.5, 1.0, 10.0, 100.0, 200.0, 255.0, 307.61, 324.78, 400.0,
            600.0, 1000.0, 1500.0, 2000.0)

    @pytest.mark.parametrize("x", GRID)
    def test_matches_regularized_incomplete_gamma(self, x):
        with mpmath.workdps(40):
            ref = mpmath.gammainc(mpmath.mpf(127.5), mpmath.mpf(x) / 2,
                                  mpmath.inf, regularized=True)
        assert chi_square_exact_tail(x) == pytest.approx(
            float(ref), rel=1e-12, abs=0.0)

    def test_zero_statistic_has_unit_tail(self):
        assert chi_square_exact_tail(0.0) == 1.0

    def test_far_tail_underflows_to_zero(self):
        assert chi_square_exact_tail(5000.0) == 0.0

    def test_never_exceeds_one(self):
        assert all(0.0 < chi_square_exact_tail(x) <= 1.0
                   for x in np.geomspace(1e-9, 200.0, 500))

    def test_package_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(vpaes.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, vpaes; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSelectionScore:
    def test_uniform_noise_scores_low(self):
        img = random_image(64, 64, 3, seed=20)
        scores = plaintext_selection_score(img)
        # a random channel's statistic hovers near its 255 mean
        assert all(score < 1e4 for score in scores.values())

    def test_single_colour_channel_closed_form(self):
        img = ImageBuffer(64, 64, 1, bytes([200]) * 4096)
        score = plaintext_selection_score(img)["gray"]
        t = 4096
        e = t / 256
        assert score == pytest.approx((t - e) ** 2 / e + 255 * e)

    def test_text_style_image_scores_high(self):
        img = text_style_image(256, 256)
        scores = plaintext_selection_score(img)
        assert all(score > 1e6 for score in scores.values())

    def test_channels_named_by_count(self):
        assert set(plaintext_selection_score(
            random_image(8, 8, 3, seed=1))) == {"red", "green", "blue"}
        assert set(plaintext_selection_score(
            random_image(8, 8, 1, seed=1))) == {"gray"}


class TestSensitivity:
    @staticmethod
    def container(width, height, channels, seed):
        rng = np.random.default_rng(seed)
        body = width * height * channels
        pad = -body % 16
        payload = rng.integers(0, 256, size=body + pad, dtype=np.uint8)
        return CipherContainer(width, height, channels, pad,
                               payload.tobytes())

    def test_identical_containers_give_unit_correlation(self):
        c = self.container(16, 16, 3, seed=30)
        out = sensitivity_correlation(c, c, count=500, seed=0)
        for r in out.values():
            assert r == pytest.approx(1.0, abs=1e-12)

    def test_independent_payloads_decorrelate(self):
        # container must hold clearly more pixels than samples, otherwise
        # duplicate positions inflate the correlation variance past the
        # 4/sqrt(count) bound
        c1 = self.container(128, 128, 3, seed=31)
        c2 = self.container(128, 128, 3, seed=32)
        for count in (500, 3000):
            out = sensitivity_correlation(c1, c2, count=count, seed=1)
            bound = 4.0 / math.sqrt(count)
            for r in out.values():
                assert abs(r) <= bound

    def test_dimension_mismatch_rejected(self):
        c1 = self.container(8, 8, 3, seed=33)
        c2 = self.container(8, 9, 3, seed=34)
        with pytest.raises(DomainError):
            sensitivity_correlation(c1, c2)

    def test_seed_reproducibility(self):
        c1 = self.container(16, 16, 1, seed=35)
        c2 = self.container(16, 16, 1, seed=36)
        a = sensitivity_correlation(c1, c2, count=400, seed=9)
        b = sensitivity_correlation(c1, c2, count=400, seed=9)
        assert a == b


class TestReportType:
    def test_decision_follows_p_and_alpha(self):
        def decision(p_value, alpha):
            return StatReport("t", "red", 1.0, p_value, alpha).decision

        assert decision(0.01, 0.01) == "accepted"
        assert decision(math.nextafter(0.01, 0), 0.01) == "rejected"
        assert decision(None, None) is None
        assert decision(0.5, None) is None


class TestChannelHelpers:
    def test_tone_histogram_counts(self):
        img = ImageBuffer(2, 2, 1, bytes([0, 0, 7, 255]))
        h = tone_histogram(img, "gray")
        assert h.total == 4
        assert h.bins[0] == 2 and h.bins[7] == 1 and h.bins[255] == 1

    def test_channel_bits_are_msb_first_bytes(self):
        img = ImageBuffer(2, 1, 1, bytes([0b10110000, 0b00000001]))
        bits = channel_bits(img, "gray")
        assert bits.tolist() == [1, 0, 1, 1, 0, 0, 0, 0,
                                 0, 0, 0, 0, 0, 0, 0, 1]
