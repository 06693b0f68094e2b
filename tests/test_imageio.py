import errno
import os
import random
import struct
import tracemalloc

import pytest

from conftest import make_bmp_bytes, random_image
from vpaes.errors import ContainerError, ImageFormatError
from vpaes.imageio import (
    CipherContainer,
    ImageBuffer,
    _atomic_write,
    cipher_view,
    container_bytes,
    load_image,
    pad_payload,
    parse_container,
    read_container,
    save_image,
    unpad_payload,
    write_container,
)


class TestPnmLoad:
    def test_p6_two_pixels(self, tmp_path):
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = load_image(path)
        assert (img.width, img.height, img.channels) == (2, 1, 3)
        assert img.data == bytes([255, 0, 0, 0, 0, 255])

    def test_p5_single_pixel(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x80")
        img = load_image(path)
        assert (img.width, img.height, img.channels) == (1, 1, 1)
        assert img.data == b"\x80"

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # comment\n# another\n 2\t1 # w h\n255\n"
                         + bytes(6))
        img = load_image(path)
        assert (img.width, img.height) == (2, 1)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("size", [(1, 1), (1, 7), (5, 7), (16, 16),
                                      (33, 2)])
    def test_save_load_roundtrip(self, tmp_path, channels, size):
        w, h = size
        img = random_image(w, h, channels, seed=w * h * channels)
        path = tmp_path / "rt.pnm"
        save_image(img, path)
        assert load_image(path) == img

    @pytest.mark.parametrize("header, size", [
        (b"P505 7\n255\n", (5, 7)),  # a token may follow the magic
        (b"P5#c\n5 +7 0255\t", (5, 7)),  # as int() reads it
        (b"P5 # 2 1 255\r5\n#\n7\f255\v", (5, 7)),  # comment to line end
        (b"P5 5#x 7 255\n", None),  # '#' inside a token is no comment
        (b"P5 5 7 255", None),  # no whitespace byte after maxval
        (b"P5 5 7 # 255\n", None),  # no maxval before the end
        (b"P5 0 7 255\n", None),
        (b"P5 5 7 256\n", None),
    ])
    def test_header_grammar(self, tmp_path, header, size):
        path = tmp_path / "g.pgm"
        path.write_bytes(header + bytes(35))
        if size is None:
            with pytest.raises(ImageFormatError):
                load_image(path)
        else:
            img = load_image(path)
            assert (img.width, img.height, img.data) == (*size, bytes(35))

    def test_long_separator_parses_in_flat_memory(self, tmp_path):
        # 400 kB of blank lines and comments before the width
        data = b"P5" + b" \n#\n" * 100_000 + b"1 1 255\n\x07"
        path = tmp_path / "long.pgm"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            img = load_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.data == b"\x07"
        assert peak < 2 * len(data)

    def test_maxval_other_than_255_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n64\n\x10")
        with pytest.raises(ImageFormatError, match="maxval 64"):
            load_image(path)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        path = tmp_path / "t.ppm"
        header = b"P6\n2 2\n255\n"
        path.write_bytes(header + bytes(5))  # need 12 pixel bytes
        offset = len(header) + 5  # where the file ended
        with pytest.raises(ImageFormatError, match=rf"need 12 bytes, have 5 "
                           rf"\(at byte offset {offset}\)$"):
            load_image(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6\n2")
        with pytest.raises(ImageFormatError, match=r"file ends inside header "
                                                   r"\(at byte offset 4\)"):
            load_image(path)

    def test_ascii_pnm_rejected(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 0 0\n")
        with pytest.raises(ImageFormatError, match="magic"):
            load_image(path)

    def test_nonnumeric_header_token(self, tmp_path):
        path = tmp_path / "n.ppm"
        path.write_bytes(b"P6\nwide 1\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError, match="non-numeric token"):
            load_image(path)


class TestBmpLoad:
    def test_decodes_rgb_bottom_up(self, tmp_path):
        img = random_image(5, 4, 3, seed=2)
        path = tmp_path / "x.bmp"
        path.write_bytes(make_bmp_bytes(img))
        assert load_image(path) == img

    def test_stride_padding_widths(self, tmp_path):
        for width in (1, 2, 3, 4, 5):  # strides 4, 8, 12, 12, 16
            img = random_image(width, 3, 3, seed=width)
            path = tmp_path / f"w{width}.bmp"
            path.write_bytes(make_bmp_bytes(img))
            assert load_image(path) == img

    def test_v5_header_and_trailing_bytes(self, tmp_path):
        # A 124-byte BITMAPV5HEADER puts the pixels at offset 138, and bytes
        # after the pixel array (an embedded ICC profile, say) are ignored.
        img = random_image(7, 5, 3, seed=7)
        raw = make_bmp_bytes(img)
        dib = struct.pack("<I", 124) + raw[18:54] + bytes(124 - 40)
        pixels, trailer = raw[54:], b"trailing profile bytes"
        header = struct.pack("<2sIHHI", b"BM", 138 + len(pixels), 0, 0, 138)
        path = tmp_path / "v5.bmp"
        path.write_bytes(header + dib + pixels + trailer)
        assert load_image(path) == img

    @pytest.mark.parametrize("offset", [0, 14, 53])
    def test_pixel_offset_inside_headers_rejected(self, tmp_path, offset):
        raw = bytearray(make_bmp_bytes(random_image(4, 4, 3, seed=8)))
        raw[10:14] = offset.to_bytes(4, "little")
        path = tmp_path / "o.bmp"
        path.write_bytes(bytes(raw))
        with pytest.raises(ImageFormatError, match="inside the headers"):
            load_image(path)

    def test_compressed_bmp_rejected(self, tmp_path):
        img = random_image(2, 2, 3, seed=3)
        raw = bytearray(make_bmp_bytes(img))
        raw[30] = 1  # BI_RLE8
        path = tmp_path / "c.bmp"
        path.write_bytes(bytes(raw))
        with pytest.raises(ImageFormatError, match="compressed"):
            load_image(path)

    def test_depth_other_than_24_rejected(self, tmp_path):
        img = random_image(2, 2, 3, seed=4)
        raw = bytearray(make_bmp_bytes(img))
        raw[28] = 32
        path = tmp_path / "d.bmp"
        path.write_bytes(bytes(raw))
        with pytest.raises(ImageFormatError, match="bit depth 32"):
            load_image(path)

    def test_top_down_rejected(self, tmp_path):
        img = random_image(2, 2, 3, seed=5)
        raw = bytearray(make_bmp_bytes(img))
        raw[22:26] = (-2).to_bytes(4, "little", signed=True)
        path = tmp_path / "td.bmp"
        path.write_bytes(bytes(raw))
        with pytest.raises(ImageFormatError, match="top-down"):
            load_image(path)

    def test_truncated_pixels(self, tmp_path):
        img = random_image(4, 4, 3, seed=6)
        path = tmp_path / "tr.bmp"
        path.write_bytes(make_bmp_bytes(img)[:-5])
        with pytest.raises(ImageFormatError,
                           match="BMP pixel data truncated"):
            load_image(path)


class TestPadding:
    def test_three_bytes_pad_to_one_block(self):
        # one colour pixel: 24 + 8*13 = 128 bits
        padded, pad_len = pad_payload(bytes(3))
        assert pad_len == 13
        assert len(padded) == 16

    def test_aligned_payload_needs_no_padding(self):
        padded, pad_len = pad_payload(bytes(786432))  # 512*512*3
        assert pad_len == 0
        assert len(padded) == 786432

    def test_7372800_bit_payload_gives_57600_blocks(self):
        padded, _ = pad_payload(bytes(7372800 // 8))
        assert len(padded) // 16 == 57600

    @pytest.mark.parametrize("length", list(range(0, 40)) + [1021, 4097])
    def test_pad_properties(self, length):
        padded, pad_len = pad_payload(bytes(length))
        assert 0 <= pad_len < 16
        assert len(padded) % 16 == 0
        assert padded[:length] == bytes(length)
        assert padded[length:] == b"\x00" * pad_len

    def test_unpad_inverts_pad(self):
        for length in (0, 1, 3, 15, 16, 17, 100):
            data = bytes((i * 7 + 1) % 256 for i in range(length))
            padded, pad_len = pad_payload(data)
            assert unpad_payload(padded, pad_len) == data

    def test_unpad_empty(self):
        assert unpad_payload(b"", 0) == b""

    def test_unpad_rejects_oversized_pad(self):
        with pytest.raises(ContainerError, match="pad_len 5 exceeds"):
            unpad_payload(bytes(4), 5)


def make_container(width=2, height=3, channels=3, pad_len=None, seed=0):
    body = width * height * channels
    if pad_len is None:
        pad_len = -body % 16
    payload = bytes((i * 31 + seed) % 256 for i in range(body + pad_len))
    return CipherContainer(width, height, channels, pad_len, payload)


class TestContainer:
    def test_write_read_identity(self, tmp_path):
        for seed, (w, h, ch) in enumerate(
                [(2, 3, 3), (1, 1, 1), (16, 4, 1), (5, 7, 3)]):
            c = make_container(w, h, ch, seed=seed)
            path = tmp_path / f"c{seed}.vpaes"
            write_container(c, path)
            assert read_container(path) == c

    def test_header_layout(self):
        c = make_container(2, 3, 3)
        raw = container_bytes(c)
        assert raw[:5] == b"VPAES"
        assert raw[5] == 1
        assert int.from_bytes(raw[6:10], "big") == 2
        assert int.from_bytes(raw[10:14], "big") == 3
        assert raw[14] == 3
        assert int.from_bytes(raw[15:17], "big") == c.pad_len
        assert raw[17:] == c.payload

    def test_bad_magic(self):
        raw = bytearray(container_bytes(make_container()))
        raw[0] = ord("W")
        with pytest.raises(ContainerError, match="bad magic"):
            parse_container(bytes(raw))

    def test_unknown_version(self):
        raw = bytearray(container_bytes(make_container()))
        raw[5] = 2
        with pytest.raises(ContainerError,
                           match="unknown container version 2"):
            parse_container(bytes(raw))

    def test_truncated_payload(self):
        raw = container_bytes(make_container())
        with pytest.raises(ContainerError, match="header implies"):
            parse_container(raw[:-3])

    def test_truncated_header(self):
        with pytest.raises(ContainerError, match="container truncated"):
            parse_container(b"VPAES\x01\x00")

    def test_bad_channels(self):
        raw = bytearray(container_bytes(make_container()))
        raw[14] = 2
        with pytest.raises(ContainerError, match="channels must be 1 or 3"):
            parse_container(bytes(raw))

    def test_oversized_pad_len(self):
        raw = bytearray(container_bytes(make_container()))
        raw[15:17] = (16).to_bytes(2, "big")
        with pytest.raises(ContainerError, match="pad_len must be in"):
            parse_container(bytes(raw))

    def test_unaligned_payload_rejected(self):
        with pytest.raises(ContainerError, match="not a multiple of 16"):
            CipherContainer(1, 1, 3, 5, bytes(8))


class TestAtomicWrite:
    def test_outputs_written_together(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _atomic_write((a, b"first"), (b, b"second"))
        assert (a.read_bytes(), b.read_bytes()) == (b"first", b"second")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch):
        # the second output's write fails after the first is written to its
        # temp file: neither appears, and the error names the second
        fdopen = os.fdopen
        opened = []

        def disk_full_on_second(fd, mode):
            opened.append(fd)
            if len(opened) < 2:
                return fdopen(fd, mode)
            os.close(fd)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fdopen", disk_full_on_second)
        a, b = tmp_path / "a", tmp_path / "b"
        with pytest.raises(OSError) as err:
            _atomic_write((a, b"first"), (b, b"second"))
        assert str(err.value) == f"[Errno {errno.ENOSPC}] " \
            f"{os.strerror(errno.ENOSPC)}: {b!r}"
        assert not list(tmp_path.iterdir())


class TestCipherView:
    def test_colour_view_keeps_dimensions(self):
        c = make_container(6, 4, 3)
        view = cipher_view(c)
        assert (view.width, view.height, view.channels) == (6, 4, 3)
        assert view.data == c.payload[:6 * 4 * 3]

    def test_grayscale_view_regroups_rows(self):
        c = make_container(10, 5, 1)  # payload 50 + 14 pad = 64 bytes
        view = cipher_view(c)
        assert view.width == 10
        assert view.channels == 3
        assert view.height == 3  # ceil(64 / 30)
        assert view.data[:64] == c.payload
        assert view.data[64:] == bytes(90 - 64)  # zero-filled partial row

    def test_view_deterministic(self):
        c = make_container(4, 4, 1)
        assert cipher_view(c) == cipher_view(c)


class TestImageBufferType:
    def test_dimension_consistency_enforced(self):
        from vpaes.errors import DomainError
        with pytest.raises(DomainError):
            ImageBuffer(2, 2, 3, bytes(11))
        with pytest.raises(DomainError):
            ImageBuffer(2, 2, 2, bytes(8))
        with pytest.raises(DomainError):
            ImageBuffer(0, 2, 1, b"")


class TestParserFuzz:
    """Seeded byte flips and truncations of valid files: whatever the
    damage, the parsers either decode or raise the one error class of
    their format, so the CLI exits 3 for an image and 5 for a container
    (a DomainError, say, would exit 1)."""

    CASES = 700  # per seed file

    @staticmethod
    def mutants(data, seed):
        rng = random.Random(seed)
        for case in range(TestParserFuzz.CASES):
            buf = bytearray(data)
            if case % 4 == 0:
                cut = rng.randrange(len(buf))
                yield f"truncated to {cut}", bytes(buf[:cut])
                continue
            # three flips in four land in the first 64 bytes, the header
            flips = []
            for _ in range(rng.randint(1, 4)):
                reach = 64 if rng.random() < 0.75 else len(buf)
                pos = rng.randrange(min(reach, len(buf)))
                buf[pos] = rng.randrange(256)
                flips.append((pos, buf[pos]))
            yield f"bytes set {flips}", bytes(buf)

    @staticmethod
    def seeds():
        grey, colour = random_image(5, 7, 1, seed=3), random_image(7, 5, 3,
                                                                   seed=4)
        return {
            "p5": b"P5\n5 7\n255\n" + grey.data,
            "p6": b"P6\n7 5\n255\n" + colour.data,
            "bmp": make_bmp_bytes(colour),
        }

    @pytest.mark.parametrize("kind", ["p5", "p6", "bmp"])
    def test_load_image_raises_only_vpaes_errors(self, tmp_path, kind):
        path = tmp_path / "fuzz.img"
        for what, data in self.mutants(self.seeds()[kind], kind):
            path.write_bytes(data)
            try:
                load_image(path)
            except ImageFormatError:
                pass
            except Exception as exc:
                pytest.fail(f"{kind} {what}: {exc!r} escaped load_image")

    @pytest.mark.parametrize("channels", [1, 3])
    def test_parse_container_raises_only_vpaes_errors(self, channels):
        valid = container_bytes(make_container(5, 3, channels, seed=9))
        for what, data in self.mutants(valid, channels):
            try:
                parse_container(data)
            except ContainerError:
                pass
            except Exception as exc:
                pytest.fail(f"container {what}: {exc!r} escaped")
