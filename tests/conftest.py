import os
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import settings

from vpaes.imageio import ImageBuffer
from vpaes.keystream import Key128

FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_PLAIN = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
FIPS_CIPHER = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

# On CI a failing property prints the blob that reproduces it (run it with
# @reproduce_failure) and keeps no example database. The profile derives
# from "default", not from Hypothesis's own CI profile, which derandomizes:
# max_examples stays and every run draws new examples.
settings.register_profile("ci", settings.get_profile("default"),
                          print_blob=True, database=None)
if "CI" in os.environ:
    settings.load_profile("ci")

# one line per acceptance criterion, printed at the end of the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def fips_key():
    return Key128(FIPS_KEY)


@pytest.fixture(autouse=True)
def forks(monkeypatch):
    """The os.fork calls made while the test runs, each after Python 3.12's
    warning on a fork beside a thread (an error outside _host's one filter);
    afterwards, no child process may be left."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(threading.active_count())
        warnings.warn(DeprecationWarning(
            f"This process (pid={os.getpid()}) is multi-threaded, use of "
            "fork() may lead to deadlocks in the child."), stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_image(width, height, channels, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=width * height * channels,
                        dtype=np.uint8)
    return ImageBuffer(width, height, channels, data.tobytes())


def text_style_plane(width, height, seed=7):
    """Two-tone page: dark glyph-like strokes on white, row bands like
    printed text. Deliberately low-randomness plaintext."""
    rng = np.random.default_rng(seed)
    page = np.full((height, width), 255, dtype=np.uint8)
    line_height = 14
    for top in range(4, height - 10, line_height):
        col = 6
        while col < width - 8:
            glyph_w = int(rng.integers(3, 8))
            if rng.random() < 0.82:
                strokes = rng.random((9, glyph_w)) < 0.55
                page[top:top + 9, col:col + glyph_w][strokes] = 0
            col += glyph_w + 2
    return page


def text_style_image(width, height, channels=3, seed=7):
    page = text_style_plane(width, height, seed)
    if channels == 1:
        return ImageBuffer(width, height, 1, page.tobytes())
    return ImageBuffer(width, height, 3,
                       np.repeat(page[:, :, None], 3, axis=2).tobytes())


def make_bmp_bytes(img):
    """24-bit bottom-up BI_RGB encoder (test-side only; the package reads
    BMP but never writes it)."""
    assert img.channels == 3
    stride = (3 * img.width + 3) & ~3
    arr = np.frombuffer(img.data, np.uint8).reshape(
        img.height, img.width, 3)
    rows = []
    for r in range(img.height - 1, -1, -1):
        row = arr[r][:, ::-1].tobytes()  # RGB -> BGR
        rows.append(row + b"\x00" * (stride - len(row)))
    pixels = b"".join(rows)
    header = struct.pack("<2sIHHI", b"BM", 54 + len(pixels), 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, img.width, img.height, 1, 24, 0,
                      len(pixels), 2835, 2835, 0, 0)
    return header + dib + pixels
