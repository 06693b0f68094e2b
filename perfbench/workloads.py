"""The three benchmark workloads: inputs, one timed op, and its check.

A workload is built in set-up from its seed alone: images and keys are
generated here, outside every timed span. ``op(i)`` runs op ``i`` and returns
the wall time of each user-visible step plus a ``check`` callable, which the
child runs after the timer stops. ``check`` returns None or a reason.

Plaintexts are smooth per-channel gradients plus low noise, so the plaintext
statistics and select-score have structure to measure.
"""

import contextlib
import io
import json
import struct
import time

import numpy as np

MAX_OPS = 500        # ops per child; keys and seeds are drawn for this many
SAMPLED_BLOCKS = 32  # blocks per op compared against the scalar reference
PREFIX_BYTES = 256   # stream prefix checked against reference_fraction_bytes
FRAMES = 4           # warm-key: distinct frames under the one key
CONTAINERS = 2       # analysis: distinct plaintexts encrypted in set-up
ANALYZE_TESTS = ("entropy", "correlation_horizontal", "correlation_vertical",
                 "correlation_diagonal", "spectral_dft", "chi_square_tone")
CHANNELS = ("red", "green", "blue")


def gradient_image(rng, size):
    """(size, size, 3) uint8: a random linear gradient per channel plus
    Gaussian noise of sigma 3."""
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    planes = []
    for _ in range(3):
        a, b = rng.uniform(-1.0, 1.0, 2)
        g = a * xx + b * yy
        planes.append((g - g.min()) / (np.ptp(g) or 1.0))
    base = np.stack(planes, axis=2) * 200.0 + 28.0
    noisy = base + rng.normal(0.0, 3.0, base.shape)
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


def new_key(rng):
    """16 random key bytes; never all-zero, and k+1 never wraps to zero."""
    while True:
        key = rng.bytes(16)
        if key not in (bytes(16), b"\xff" * 16):
            return key


def _atan_inv(q, one):
    """atan(1/q) * one by the plain alternating series."""
    total, power, k = 0, one // q, 1
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power //= q * q
        k += 2
    return total


def reference_fraction_bytes(l, count):
    """The first ``count`` bytes of frac(l * pi), with pi from Euler's
    pi/4 = atan(1/2) + atan(1/3): arithmetic independent of the package's.
    The series runs 16 bits finer than ``prec``, so pi is off by at most a
    few ulp of 2^-prec; times l < 2^128 the error stays over 100 bits below
    the last byte wanted."""
    prec = 8 * count + 256
    one = 1 << (prec + 16)
    pi = (4 * (_atan_inv(2, one) + _atan_inv(3, one))) >> 16
    return ((l * pi) >> (prec - 8 * count) & ((1 << 8 * count) - 1)
            ).to_bytes(count, "big")


def p6_bytes(pixels):
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def bmp_bytes(pixels):
    """Uncompressed bottom-up 24-bit BMP of an RGB array."""
    h, w, _ = pixels.shape
    stride = (3 * w + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :3 * w] = pixels[::-1, :, ::-1].reshape(h, 3 * w)
    header = struct.pack("<2sIHHI", b"BM", 54 + rows.size, 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, rows.size,
                      2835, 2835, 0, 0)
    return header + dib + rows.tobytes()


class Workload:
    def __init__(self, vpaes, seed, child, size, work_dir):
        self.vpaes = vpaes
        seed %= 2**64  # SeedSequence takes non-negative integers only
        self.rng = np.random.default_rng([seed, child])
        self.check_rng = np.random.default_rng([seed, child, 1])
        self.size = size
        self.dir = work_dir
        self.sink = io.StringIO()

    def path(self, name):
        return str(self.dir / name)

    def write(self, name, data):
        path = self.path(name)
        with open(path, "wb") as f:
            f.write(data)
        return path

    def cli(self, argv):
        """``vpaes.cli.main`` with its progress lines kept off stdout."""
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            return self.vpaes.cli.main(argv)

    def check_blocks(self, plain, payload, key):
        """None if sampled blocks of ``payload`` match the scalar reference
        ``encrypt_block(block, permutation_from_coefficients(
        coefficients_from_bytes(window(stream, j))), expand_key(key))``."""
        v = self.vpaes
        if len(payload) != len(plain):
            return f"ciphertext holds {len(payload)} bytes, not {len(plain)}"
        blocks = len(plain) // 16
        l = v.key_to_integer(key)
        stream = v.pi_fraction_bytes(l, v.required_byte_count(blocks))
        prefix = min(PREFIX_BYTES, stream.count)
        if reference_fraction_bytes(l, prefix) != stream.data[:prefix]:
            return "keystream prefix differs from the reference"
        rks = v.expand_key(key)
        picks = self.check_rng.choice(
            blocks, size=min(SAMPLED_BLOCKS, blocks), replace=False)
        for j in sorted(int(j) for j in picks):
            perm = v.permutation_from_coefficients(
                v.coefficients_from_bytes(v.window(stream, j)))
            lo, hi = 16 * j, 16 * (j + 1)
            if v.encrypt_block(plain[lo:hi], perm, rks) != payload[lo:hi]:
                return f"block {j} differs from the scalar reference"
        return None


class FreshKey(Workload):
    """One-shot CLI user: a new key per op, so every encrypt computes its
    keystream cold; decrypt in the same process hits the stream cache."""

    # Probe parts that tracked this op best (probe.py, README.md). The probe's
    # own big-integer part did not: keystream ops slowed far less than it.
    PROBE_WEIGHTS = {"interpreter": 1 / 3, "sort": 1 / 3, "gather": 1 / 3}

    def __init__(self, *args):
        super().__init__(*args)
        self.pixels = gradient_image(self.rng, self.size)
        self.plain = self.write("plain.ppm", p6_bytes(self.pixels))
        self.keys = [new_key(self.rng) for _ in range(MAX_OPS + 1)]

    def op(self, i):
        key = self.keys[i]
        ct, view, out = (self.path(n) for n in ("ct.vpaes", "view.ppm",
                                                 "out.ppm"))
        t0 = time.perf_counter()
        rc_enc = self.cli(["encrypt", "--in", self.plain, "--out", ct,
                           "--key", key.hex(), "--view", view])
        t1 = time.perf_counter()
        rc_dec = self.cli(["decrypt", "--in", ct, "--out", out,
                           "--key", key.hex()])
        t2 = time.perf_counter()

        def check():
            if (rc_enc, rc_dec) != (0, 0):
                return f"exit codes encrypt={rc_enc} decrypt={rc_dec}"
            v = self.vpaes
            if v.load_image(out).data != self.pixels.tobytes():
                return "decrypt did not return the plaintext"
            c = v.read_container(ct)
            if v.load_image(view).data != c.payload[:self.pixels.size]:
                return "cipher view differs from the container payload"
            plain, _ = v.pad_payload(self.pixels.tobytes())
            return self.check_blocks(plain, c.payload, v.Key128(key))

        return {"encrypt": t1 - t0, "decrypt": t2 - t1}, check


class WarmKey(Workload):
    """Batch library user: one key, same-size BMP frames; after the warm-up
    op every keystream request is a cache hit."""

    # Probe parts that tracked this op best (probe.py, README.md); the
    # selection part stands for the derivation's memory pattern.
    PROBE_WEIGHTS = {"interpreter": 0.25, "sort": 0.25, "gather": 0.25,
                     "select": 0.25}

    def __init__(self, *args):
        super().__init__(*args)
        self.key = self.vpaes.Key128(new_key(self.rng))
        self.frames = [gradient_image(self.rng, self.size)
                       for _ in range(FRAMES)]
        self.bmps = [self.write(f"frame{n}.bmp", bmp_bytes(f))
                     for n, f in enumerate(self.frames)]

    def op(self, i):
        cipher, imageio = self.vpaes.cipher, self.vpaes.imageio
        pixels = self.frames[i % FRAMES]
        ct, out = self.path("ct.vpaes"), self.path("out.ppm")
        t0 = time.perf_counter()
        img = imageio.load_image(self.bmps[i % FRAMES])
        padded, pad_len = imageio.pad_payload(img.data)
        payload = cipher.encrypt_payload(padded, self.key)
        imageio.write_container(imageio.CipherContainer(
            img.width, img.height, img.channels, pad_len, payload), ct)
        t1 = time.perf_counter()
        c = imageio.read_container(ct)
        data = imageio.unpad_payload(
            cipher.decrypt_payload(c.payload, self.key), c.pad_len)
        imageio.save_image(imageio.ImageBuffer(
            c.width, c.height, c.channels, data), out)
        t2 = time.perf_counter()

        def check():
            v = self.vpaes
            if v.load_image(out).data != pixels.tobytes():
                return "decrypt did not return the plaintext"
            plain, _ = v.pad_payload(pixels.tobytes())
            return self.check_blocks(plain, payload, self.key)

        return {"encrypt": t1 - t0, "decrypt": t2 - t1}, check


class Analysis(Workload):
    """Evaluator: the randomness battery over ciphertext containers and
    select-score over their plaintexts; no keystream or cipher work per op."""

    # Shares of a quiet-host op (probe.py): spectral-test FFTs 0.8, array
    # conversions and histograms 0.1, CLI and JSON 0.1. These tracked it.
    PROBE_WEIGHTS = {"fft": 0.8, "gather": 0.1, "interpreter": 0.1}

    def __init__(self, *args):
        super().__init__(*args)
        key = new_key(self.rng)
        self.images = [gradient_image(self.rng, self.size)
                       for _ in range(CONTAINERS)]
        self.plains, self.containers = [], []
        for n, pixels in enumerate(self.images):
            plain = self.write(f"plain{n}.ppm", p6_bytes(pixels))
            ct = self.path(f"ct{n}.vpaes")
            rc = self.cli(["encrypt", "--in", plain, "--out", ct,
                           "--key", key.hex()])
            if rc != 0:
                raise RuntimeError(f"set-up encrypt exited {rc}")
            padded, _ = self.vpaes.pad_payload(pixels.tobytes())
            reason = self.check_blocks(
                padded, self.vpaes.read_container(ct).payload,
                self.vpaes.Key128(key))
            if reason:
                raise RuntimeError(f"set-up ciphertext wrong: {reason}")
            self.plains.append(plain)
            self.containers.append(ct)
        self.sample_seeds = [int(s) for s in
                             self.rng.integers(0, 2**31, MAX_OPS + 1)]

    def op(self, i):
        j = i % CONTAINERS
        report, score = self.path("report.json"), self.path("score.json")
        t0 = time.perf_counter()
        rc_an = self.cli([
            "analyze", "--in", self.containers[j], "--report", "json",
            "--out", report,
            "--seed", str(self.sample_seeds[i])])
        t1 = time.perf_counter()
        rc_sc = self.cli(["select-score", "--in", self.plains[j],
                          "--report", "json", "--out", score])
        t2 = time.perf_counter()

        def check():
            if (rc_an, rc_sc) != (0, 0):
                return f"exit codes analyze={rc_an} select-score={rc_sc}"
            with open(report) as f:
                results = json.load(f)["results"]
            got = sorted((r["test"], r["channel"]) for r in results
                         if "error" not in r)
            if got != sorted((t, c) for t in ANALYZE_TESTS for c in CHANNELS):
                return f"analyze reported {got}"
            with open(score) as f:
                scores = {r["channel"]: r["statistic"]
                          for r in json.load(f)["results"]}
            plane = self.images[j].reshape(-1, 3)
            for n, ch in enumerate(CHANNELS):
                counts = np.bincount(plane[:, n], minlength=256)
                e = plane.shape[0] / 256.0
                expected = float(np.sum((counts - e) ** 2) / e)
                if not np.isclose(scores.get(ch, np.nan), expected,
                                  rtol=1e-9):
                    return f"select-score {ch} is {scores.get(ch)}, " \
                           f"expected {expected}"
            return None

        return {"analyze": t1 - t0, "select_score": t2 - t1}, check


WORKLOADS = {"fresh-key": FreshKey, "warm-key": WarmKey, "analysis": Analysis}
