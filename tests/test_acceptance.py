"""Acceptance suite: one test per exit criterion, each appending a PASS/FAIL
line to the terminal summary. Stated tolerances are pinned here, not
calibrated elsewhere."""

import time
from math import factorial

import conftest
from conftest import (
    FIPS_CIPHER,
    FIPS_KEY,
    FIPS_PLAIN,
    random_image,
    text_style_image,
)
from oracles import mp_frac_bytes, pi_fraction_bytes_bbp
from vpaes.cipher import (
    decrypt_payload,
    encrypt_block,
    encrypt_payload,
    encrypt_payload_with_stream,
    expand_key,
)
from vpaes.cli import parse_key_hex
from vpaes.imageio import (
    CipherContainer,
    ImageBuffer,
    pad_payload,
    unpad_payload,
)
from vpaes.keystream import (
    Key128,
    key_to_integer,
    pi_fraction_bytes,
    required_byte_count,
)
from vpaes.permgen import (
    factoradic_compose,
    factoradic_decompose,
    identity_permutation,
    permutation_from_coefficients,
)
from vpaes.randstat import (
    channel_bits,
    channel_names,
    chi_square_p_value,
    chi_square_tone_test,
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

REFERENCE_KEY = Key128(bytes.fromhex("0123456789abcdeffedcba9876543210"))


def check(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def roundtrips_exactly(img, key):
    padded, pad_len = pad_payload(img.data)
    container = CipherContainer(img.width, img.height, img.channels,
                                pad_len, encrypt_payload(padded, key))
    plain = unpad_payload(decrypt_payload(container.payload, key),
                          container.pad_len)
    return ImageBuffer(img.width, img.height, img.channels, plain) == img


def test_criterion_01_standard_aes_reduction():
    rk = expand_key(Key128(FIPS_KEY))
    ident = identity_permutation(128)
    out = encrypt_block(FIPS_PLAIN, ident, rk)
    best = min(
        _timed(lambda: encrypt_block(FIPS_PLAIN, ident, rk))
        for _ in range(5))
    check(1, out == FIPS_CIPHER and best < 1e-3,
          f"identity-permutation block matches the published vector, "
          f"{best * 1e6:.0f}us/block (< 1 ms)")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_bijection_small_m():
    start = time.perf_counter()
    ok = True
    for m in (4, 5, 6):
        perms = set()
        for n in range(factorial(m)):
            digits = factoradic_decompose(n, m)
            ok &= factoradic_compose(digits) == n
            perms.add(permutation_from_coefficients(digits).mapping)
        ok &= len(perms) == factorial(m)
    elapsed = time.perf_counter() - start
    check(2, ok and elapsed < 1.0,
          f"m in {{4,5,6}}: m! distinct permutations, compose/decompose "
          f"identity, {elapsed:.2f}s (< 1 s)")


def test_criterion_03a_keystream_pi_bytes():
    stream = pi_fraction_bytes(1, 64).data
    ok = (stream == mp_frac_bytes(1, 64)
          and stream == pi_fraction_bytes_bbp(0, 64)
          and stream[:8] == bytes.fromhex("243f6a8885a308d3"))
    check("3a", ok, "first 64 fraction bytes for l=1 match two independent "
                    "oracles byte-for-byte")


def test_criterion_03b_published_key_integer():
    # The published key string and the published integer value of that key
    # are mutually inconsistent: the integer corresponds to the hex string
    # 0123456789ABCDEFFECBA9876543210, not to the listed key
    # 0123456789ABCDEFEDCBA9876543210 (each drops one character of the
    # 32-digit palindrome). Kept as stated; expected to fail.
    key = parse_key_hex("0123456789ABCDEFEDCBA9876543210")
    l = key_to_integer(key)
    expected = 94522879700260684207971970630038032
    check("3b", l == expected,
          f"published key string converts to {l}, published value is "
          f"{expected}")


def test_criterion_04_losslessness():
    start = time.perf_counter()
    key = Key128(FIPS_KEY)
    cases = [random_image(512, 512, 3, seed=100),
             random_image(512, 512, 1, seed=101)]
    for w, h in ((1, 1), (3, 1), (5, 7)):
        for channels in (1, 3):
            cases.append(random_image(w, h, channels, seed=w * 100 + h))
    ok = all(roundtrips_exactly(img, key) for img in cases)
    elapsed = time.perf_counter() - start
    check(4, ok and elapsed < 10.0,
          f"decrypt(encrypt(img)) byte-identical for 512x512 RGB+gray and "
          f"6 edge cases, {elapsed:.1f}s (< 10 s)")


def test_criterion_05_padding():
    three, n3 = pad_payload(bytes(3))
    big, n_big = pad_payload(bytes(7372800 // 8))
    sweep_ok = all(
        0 <= pad_payload(bytes(length))[1] < 16
        and len(pad_payload(bytes(length))[0]) % 16 == 0
        for length in range(0, 257))
    ok = (n3 == 13 and len(three) == 16
          and n_big == 0 and len(big) // 16 == 57600
          and sweep_ok)
    check(5, ok, "3-byte payload pads with n=13; 7372800-bit payload gives "
                 "57600 blocks; pad_len < 16 over a length sweep")


def test_criterion_06_statistical_quality():
    start = time.perf_counter()
    img = text_style_image(512, 512)
    scores = plaintext_selection_score(img)
    low_randomness = all(score > 1e7 for score in scores.values())

    padded, pad_len = pad_payload(img.data)
    container = CipherContainer(
        img.width, img.height, img.channels, pad_len,
        encrypt_payload(padded, REFERENCE_KEY))
    cipher_img = ImageBuffer(
        img.width, img.height, img.channels,
        container.payload[:img.width * img.height * img.channels])

    channels = channel_names(cipher_img.channels)
    entropies = {ch: entropy(tone_histogram(cipher_img, ch))
                 for ch in channels}
    entropy_ok = all(h >= 7.99 for h in entropies.values())

    correlations = {
        (direction, ch): correlation(sample_adjacent_pairs(
            cipher_img, direction, ch, count=3000, seed=2024))
        for direction in ("horizontal", "vertical", "diagonal")
        for ch in channels
    }
    corr_ok = all(abs(r) <= 0.05 for r in correlations.values())

    spectral_accepted = sum(
        spectral_dft_test(channel_bits(cipher_img, ch), 0.01, ch).decision
        == "accepted" for ch in channels)
    chi_accepted = sum(
        chi_square_tone_test(tone_histogram(cipher_img, ch), 0.01).decision
        == "accepted" for ch in channels)

    elapsed = time.perf_counter() - start
    ok = (low_randomness and entropy_ok and corr_ok
          and spectral_accepted >= 2 and chi_accepted >= 2
          and elapsed < 30.0)
    check(6, ok,
          f"plaintext chi2 {min(scores.values()):.3g} > 1e7; cipher entropy "
          f"min {min(entropies.values()):.5f} >= 7.99; max |corr| "
          f"{max(abs(r) for r in correlations.values()):.4f} <= 0.05; "
          f"spectral {spectral_accepted}/3, chi2 {chi_accepted}/3 accepted; "
          f"{elapsed:.1f}s (< 30 s)")


def _p_value_crossing(alpha):
    lo, hi = 255.0, 400.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if chi_square_p_value(mid) >= alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_criterion_07a_threshold_at_alpha_001():
    # The 0.01 crossing of 1 - phi((x-255)/22.5831) sits at x = 307.536;
    # the quoted 307.61 arises from the two-decimal normal quantile 2.33
    # rather than the exact 2.3263. Kept as stated; expected to fail.
    crossing = _p_value_crossing(0.01)
    check("7a", abs(crossing - 307.61) <= 0.01,
          f"p-value crosses 0.01 at chi2 = {crossing:.4f} "
          f"(required 307.61 +/- 0.01)")


def test_criterion_07b_threshold_at_alpha_0001():
    crossing = _p_value_crossing(0.001)
    check("7b", abs(crossing - 324.78) <= 0.01,
          f"p-value crosses 0.001 at chi2 = {crossing:.4f} "
          f"(required 324.78 +/- 0.01)")


def test_criterion_08_erfc_phi_identity():
    worst = max(
        abs(erfc(z / 2.0 ** 0.5) - 2.0 * (1.0 - phi(z)))
        for z in (i * 16.0 / 999.0 - 8.0 for i in range(1000)))
    check(8, worst <= 1e-10,
          f"max |erfc(z/sqrt2) - 2(1-phi(z))| = {worst:.2e} over 1000-point "
          f"grid on [-8, 8] (<= 1e-10)")


def test_criterion_09_key_sensitivity():
    img = random_image(512, 512, 3, seed=2025)
    padded, pad_len = pad_payload(img.data)
    key_next = Key128(
        ((key_to_integer(REFERENCE_KEY) + 1) % (1 << 128)).to_bytes(16, "big"))
    containers = [
        CipherContainer(img.width, img.height, img.channels, pad_len,
                        encrypt_payload(padded, k))
        for k in (REFERENCE_KEY, key_next)
    ]
    rs = sensitivity_correlation(containers[0], containers[1],
                                 count=3000, seed=7)
    worst = max(abs(r) for r in rs.values())
    check(9, worst <= 0.05,
          f"keys k and k+1 on 512x512: max per-channel |r| = {worst:.4f} "
          f"(<= 0.05 at 3000 samples)")


def test_criterion_10_performance(forks):
    img = random_image(512, 512, 3, seed=2026)
    padded, _ = pad_payload(img.data)
    blocks = len(padded) // 16
    l = key_to_integer(REFERENCE_KEY)

    pi_fraction_bytes.cache_clear()
    start = time.perf_counter()
    stream = pi_fraction_bytes(l, required_byte_count(blocks))
    keystream_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    encrypt_payload_with_stream(padded, REFERENCE_KEY, stream)
    encrypt_elapsed = time.perf_counter() - start

    check(10, keystream_elapsed <= 30.0 and encrypt_elapsed <= 3.0,
          f"512x512 colour: keystream {keystream_elapsed:.2f}s (<= 30 s), "
          f"encryption excluding keystream {encrypt_elapsed:.2f}s (<= 3 s), "
          f"on {'two processes' if forks else 'one process'}")
