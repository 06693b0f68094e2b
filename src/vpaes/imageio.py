"""Lossless raster I/O, payload padding, and the ciphertext container.

Readable formats: binary PPM (P6) and PGM (P5) with maxval 255, and
uncompressed bottom-up 24-bit BMP. Writes always go out as P6/P5. No pixel
is ever resampled or colour-transformed; these are byte-exact codecs.

The container is a 17-byte header followed by the ciphertext:

    magic "VPAES" | version 1 | width u32be | height u32be |
    channels u8 | pad_len u16be | payload

pad_len travels in the header so decryption strips padding exactly instead
of guessing.
"""

import errno
import itertools
import math
import os
import re
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ContainerError, DomainError, ImageFormatError
from .permgen import BLOCK_BYTES

MAGIC = b"VPAES"
VERSION = 1
_HEADER = struct.Struct(">5sBIIBH")


@dataclass(frozen=True)
class ImageBuffer:
    """Decoded raster: row-major interleaved bytes, 1 or 3 channels."""

    width: int
    height: int
    channels: int
    data: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError(
                f"bad dimensions {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise DomainError(f"channels must be 1 or 3, got {self.channels}")
        expected = self.width * self.height * self.channels
        if len(self.data) != expected:
            raise DomainError(
                f"data holds {len(self.data)} bytes, expected {expected}")


@dataclass(frozen=True)
class CipherContainer:
    """Ciphertext plus the header fields needed for exact inversion."""

    width: int
    height: int
    channels: int
    pad_len: int
    payload: bytes

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ContainerError(
                f"channels must be 1 or 3, got {self.channels}")
        if not 0 <= self.pad_len < BLOCK_BYTES:
            raise ContainerError(
                f"pad_len must be in [0, 16), got {self.pad_len}")
        if self.width < 1 or self.height < 1:
            raise ContainerError(f"bad dimensions {self.width}x{self.height}")
        expected = self.width * self.height * self.channels + self.pad_len
        if len(self.payload) != expected:
            raise ContainerError(
                f"payload holds {len(self.payload)} bytes, header implies "
                f"{expected}")
        if len(self.payload) % BLOCK_BYTES:
            raise ContainerError(
                f"payload length {len(self.payload)} not a multiple of 16")


def _atomic_write(*outputs):
    """Write each (path, data) pair via a sibling temp file + rename, so
    readers never see a torn file. Every temp file is written, and no
    target may be a directory, before the first rename; no temp file is
    left behind. So a failed create or write, or a target that is a
    directory, leaves no output. One gap remains: a rename that fails for
    another reason leaves the outputs renamed before it. An OSError names
    the requested path it failed on."""
    temps = []
    try:
        for path, data in outputs:
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(path)),
                prefix=".tmp-vpaes-")
            temps.append(tmp)
            with os.fdopen(fd, "wb") as f:
                f.write(data)
        for path, _ in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), path)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            try:
                os.unlink(tmp)
            except OSError:  # already renamed into place
                pass
        if isinstance(exc, OSError):  # name the output, not its temp file
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


# ---------------------------------------------------------------------------
# PNM (P5 / P6)

# After the magic: width, height and maxval as int() reads them, then one
# whitespace byte. Tokens are non-whitespace runs that do not open a comment;
# whitespace and '#' comments to the end of the line separate them. A match
# is one token or comment: a whole-header pattern keeps a frame per separator.
_PNM_TOKEN = re.compile(rb"#[^\r\n]*|([^\s#]\S*)")


def _load_pnm(data):
    tokens = (m for m in _PNM_TOKEN.finditer(data, 2) if m[1])
    fields = list(itertools.islice(tokens, 3))
    if len(fields) < 3 or fields[2].end() == len(data):
        raise ImageFormatError(
            f"file ends inside header (at byte offset {len(data)})")
    try:
        width, height, maxval = (int(m[1]) for m in fields)
    except ValueError:
        raise ImageFormatError(
            f"non-numeric token in header {[m[1] for m in fields]}") from None
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad PNM dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(
            f"unsupported maxval {maxval}; only 8-bit (255) rasters")
    channels = 3 if data[:2] == b"P6" else 1
    need = width * height * channels
    pos = fields[2].end() + 1  # past the one whitespace byte
    pixels = data[pos:pos + need]
    if len(pixels) < need:
        raise ImageFormatError(
            f"pixel data truncated: need {need} bytes, have {len(pixels)} "
            f"(at byte offset {pos + len(pixels)})")
    return ImageBuffer(width, height, channels, pixels)


# ---------------------------------------------------------------------------
# BMP (read-only: uncompressed 24-bit bottom-up)

# bfOffBits, then BITMAPINFOHEADER from biSize through biCompression
_BMP_HEADER = struct.Struct("<10xIIiiHHI")


def _load_bmp(data):
    if len(data) < 54:
        raise ImageFormatError(
            f"BMP header truncated (at byte offset {len(data)})")
    (pixel_offset, dib_size, width, height, planes, bitcount,
     compression) = _BMP_HEADER.unpack_from(data)
    if dib_size < 40:
        raise ImageFormatError(
            f"unsupported BMP DIB header of {dib_size} bytes")
    if pixel_offset < 14 + dib_size:
        raise ImageFormatError(
            f"BMP pixel offset {pixel_offset} points inside the headers")
    if planes != 1:
        raise ImageFormatError(f"BMP planes must be 1, got {planes}")
    if bitcount != 24:
        raise ImageFormatError(
            f"unsupported BMP bit depth {bitcount}; only 24-bit")
    if compression != 0:
        raise ImageFormatError(
            f"compressed BMP (method {compression}) unsupported; only BI_RGB")
    if height < 0:
        raise ImageFormatError("top-down BMP unsupported; only bottom-up")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad BMP dimensions {width}x{height}")
    stride = (3 * width + 3) & ~3
    need = pixel_offset + stride * height
    if len(data) < need:
        raise ImageFormatError(
            f"BMP pixel data truncated: need {need} bytes, have {len(data)} "
            f"(at byte offset {len(data)})")
    rows = np.frombuffer(data, np.uint8, stride * height, pixel_offset)
    # bottom-up rows -> top-down, drop the stride padding, BGR -> RGB
    bgr = rows.reshape(height, stride)[::-1, :3 * width]
    rgb = bgr.reshape(height, width, 3)[..., ::-1]
    return ImageBuffer(width, height, 3, rgb.tobytes())


def _read_file(path):
    with open(path, "rb") as f:
        return f.read()


def load_image(path):
    """Decode a P6/P5/BMP file to exact pixel bytes."""
    return decode_image(_read_file(path))


def decode_image(data):
    """Decode the bytes of a P6/P5/BMP file to exact pixel bytes."""
    magic = data[:2]
    if magic in (b"P6", b"P5"):
        return _load_pnm(data)
    if magic == b"BM":
        return _load_bmp(data)
    raise ImageFormatError(
        f"unrecognised image magic {magic!r}; supported: P6, P5, BM")


def image_bytes(img):
    """A buffer as the bytes of a binary PPM (3 channels) or PGM (1)."""
    magic = b"P6" if img.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.data


def save_image(img, path):
    """Write a buffer as binary PPM (3 channels) or PGM (1 channel)."""
    _atomic_write((path, image_bytes(img)))


# ---------------------------------------------------------------------------
# Padding


def pad_payload(data):
    """Zero-pad to the next 16-byte boundary; returns (padded, pad_len).

    pad_len is the minimal n >= 0 with 8*len(data) + 8n divisible by 128,
    so pad_len < 16 always.
    """
    pad_len = -len(data) % BLOCK_BYTES
    return data + b"\x00" * pad_len, pad_len


def unpad_payload(data, pad_len):
    if pad_len < 0 or pad_len > len(data):
        raise ContainerError(
            f"pad_len {pad_len} exceeds payload of {len(data)} bytes")
    return data[:len(data) - pad_len] if pad_len else data


# ---------------------------------------------------------------------------
# Container


def container_bytes(c):
    return _HEADER.pack(
        MAGIC, VERSION, c.width, c.height, c.channels, c.pad_len) + c.payload


def write_container(c, path):
    _atomic_write((path, container_bytes(c)))


def parse_container(data):
    if len(data) < _HEADER.size:
        raise ContainerError(
            f"container truncated: {len(data)} bytes, header needs "
            f"{_HEADER.size}")
    magic, version, width, height, channels, pad_len = _HEADER.unpack_from(
        data)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unknown container version {version}")
    # CipherContainer validation covers channels, pad_len range, and the
    # payload-length consistency (truncated or oversized payloads included).
    return CipherContainer(
        width, height, channels, pad_len, data[_HEADER.size:])


def read_container(path):
    return parse_container(_read_file(path))


def cipher_view(c):
    """The ciphertext as a viewable colour raster.

    Colour plaintexts keep their dimensions (payload covers width*height*3).
    Grayscale ones keep the width; rows are regrouped three bytes per pixel
    and the final partial row is zero-filled. The view is for inspection
    only; decryption reads the container, never the view.
    """
    if c.channels == 3:
        need = c.width * c.height * 3
        return ImageBuffer(c.width, c.height, 3, c.payload[:need])
    view_height = math.ceil(len(c.payload) / (3 * c.width))
    need = c.width * view_height * 3
    data = c.payload + b"\x00" * (need - len(c.payload))
    return ImageBuffer(c.width, view_height, 3, data)
