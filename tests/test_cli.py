import builtins
import hashlib
import json
import math

import pytest

import vpaes
from vpaes import cipher, randstat
from conftest import random_image, text_style_image
from vpaes.cli import main, parse_key_hex
from vpaes.errors import KeyFormatError
from vpaes.imageio import load_image, read_container, save_image

KEY = "000102030405060708090a0b0c0d0e0f"
# 32 characters, but bytes.fromhex would skip the spaces and yield 15 bytes
SPACED_KEY = "00112233445566778899aabbccdd  ee"


def write_ppm(path, img):
    save_image(img, path)
    return str(path)


class TestKeyParsing:
    def test_32_hex_chars(self):
        key = parse_key_hex(KEY)
        assert key.data == bytes(range(16))

    def test_31_hex_chars_left_padded(self):
        key = parse_key_hex("123456789abcdeffedcba9876543210")
        assert key.data == bytes.fromhex("0123456789abcdeffedcba9876543210")

    def test_uppercase_ok(self):
        assert parse_key_hex(KEY.upper()).data == bytes(range(16))

    @pytest.mark.parametrize(
        "bad", ["", "00", "zz" * 16, "0" * 33, SPACED_KEY])
    def test_bad_keys_rejected(self, bad):
        with pytest.raises(KeyFormatError):
            parse_key_hex(bad)

    def test_zero_key_rejected(self):
        with pytest.raises(KeyFormatError):
            parse_key_hex("0" * 32)


class TestEncryptDecrypt:
    def test_roundtrip_colour(self, tmp_path, capsys):
        img = random_image(24, 16, 3, seed=1)
        src = write_ppm(tmp_path / "in.ppm", img)
        enc = str(tmp_path / "out.vpaes")
        dec = str(tmp_path / "back.ppm")
        assert main(["encrypt", "--in", src, "--out", enc,
                     "--key", KEY]) == 0
        printed = capsys.readouterr().out
        assert "blocks=72" in printed
        assert "pad_len=0" in printed
        assert "elapsed=" in printed
        assert main(["decrypt", "--in", enc, "--out", dec,
                     "--key", KEY]) == 0
        assert load_image(dec) == img

    def test_roundtrip_grayscale_with_padding(self, tmp_path):
        img = random_image(5, 5, 1, seed=2)  # 25 bytes -> pad 7
        src = write_ppm(tmp_path / "in.pgm", img)
        enc = str(tmp_path / "out.vpaes")
        dec = str(tmp_path / "back.pgm")
        assert main(["encrypt", "--in", src, "--out", enc,
                     "--key", KEY]) == 0
        assert read_container(enc).pad_len == 7
        assert main(["decrypt", "--in", enc, "--out", dec,
                     "--key", KEY]) == 0
        assert load_image(dec) == img

    def test_grayscale_cipher_view_is_colour(self, tmp_path):
        img = random_image(8, 8, 1, seed=3)
        src = write_ppm(tmp_path / "in.pgm", img)
        view = str(tmp_path / "view.ppm")
        assert main(["encrypt", "--in", src, "--out",
                     str(tmp_path / "o.vpaes"), "--key", KEY,
                     "--view", view]) == 0
        assert load_image(view).channels == 3

    def test_wrong_key_gives_noise_not_error(self, tmp_path):
        img = random_image(16, 16, 3, seed=4)
        src = write_ppm(tmp_path / "in.ppm", img)
        enc = str(tmp_path / "o.vpaes")
        dec = str(tmp_path / "bad.ppm")
        assert main(["encrypt", "--in", src, "--out", enc,
                     "--key", KEY]) == 0
        other = "f00d" + KEY[4:]
        assert main(["decrypt", "--in", enc, "--out", dec,
                     "--key", other]) == 0
        assert load_image(dec) != img


class TestExitCodes:
    def test_bad_key_is_2(self, tmp_path, capsys):
        img = random_image(4, 4, 3, seed=6)
        src = write_ppm(tmp_path / "in.ppm", img)
        assert main(["encrypt", "--in", src,
                     "--out", str(tmp_path / "o"), "--key", "nothex"]) == 2
        assert "error" in capsys.readouterr().err

    def test_embedded_whitespace_key_is_2(self, tmp_path):
        img = random_image(4, 4, 3, seed=6)
        src = write_ppm(tmp_path / "in.ppm", img)
        assert main(["encrypt", "--in", src,
                     "--out", str(tmp_path / "o"), "--key", SPACED_KEY]) == 2

    @pytest.mark.parametrize("command", ["analyze", "sensitivity"])
    @pytest.mark.parametrize("samples", [
        "0", "1", "many", str(randstat.MAX_SAMPLES + 1), str(10**12)])
    def test_bad_samples_is_a_usage_error(self, tmp_path, capsys,
                                           command, samples):
        img = random_image(8, 8, 3, seed=7)
        src = write_ppm(tmp_path / "in.ppm", img)
        argv = [command, "--in", src, "--samples", samples]
        if command == "sensitivity":
            argv += ["--key", KEY]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "sensitivity"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys,
                                            command):
        src = write_ppm(tmp_path / "in.ppm", random_image(8, 8, 3, seed=7))
        argv = [command, "--in", src, "--seed", "-1"]
        if command == "sensitivity":
            argv += ["--key", KEY]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_report_is_a_usage_error_without_a_report(self, tmp_path, capsys,
                                                      command):
        # encrypt and decrypt write no report, so they take no --report
        argv = [command, "--in", str(tmp_path / "in"), "--out",
                str(tmp_path / "out"), "--key", KEY, "--report", "json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --report" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_alpha_is_a_usage_error_for_sensitivity(self, tmp_path, capsys):
        # sensitivity runs no test at a significance level, and its report
        # records no alpha
        src = write_ppm(tmp_path / "in.ppm", random_image(8, 8, 3, seed=7))
        with pytest.raises(SystemExit) as exc:
            main(["sensitivity", "--in", src, "--key", KEY,
                  "--alpha", "0.01"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err

    def test_zero_key_is_2(self, tmp_path):
        img = random_image(4, 4, 3, seed=6)
        src = write_ppm(tmp_path / "in.ppm", img)
        assert main(["encrypt", "--in", src,
                     "--out", str(tmp_path / "o"), "--key", "0" * 32]) == 2

    def test_unsupported_image_is_3(self, tmp_path):
        bad = tmp_path / "not_image.txt"
        bad.write_bytes(b"hello world\n")
        assert main(["encrypt", "--in", str(bad),
                     "--out", str(tmp_path / "o"), "--key", KEY]) == 3

    def test_missing_input_is_4(self, tmp_path):
        assert main(["encrypt", "--in", str(tmp_path / "absent.ppm"),
                     "--out", str(tmp_path / "o"), "--key", KEY]) == 4

    def test_missing_output_directory_is_4(self, tmp_path, capsys):
        # the error names the requested output, not the temp file beside it
        img = random_image(4, 4, 3, seed=5)
        src = write_ppm(tmp_path / "in.ppm", img)
        assert main(["encrypt", "--in", src, "--key", KEY, "--out",
                     str(tmp_path / "nodir" / "o.vpaes")]) == 4
        err = capsys.readouterr().err
        assert "o.vpaes" in err and ".tmp-vpaes-" not in err

    def test_output_that_is_a_directory_is_4(self, tmp_path, capsys):
        # the target check fails, not the create: the error still names
        # --out, and the temp file beside it is gone
        src = write_ppm(tmp_path / "in.ppm", random_image(4, 4, 3, seed=5))
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["encrypt", "--in", src, "--key", KEY,
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err.endswith(
            f"Is a directory: '{out}'\n")
        assert not list(tmp_path.glob(".tmp-vpaes-*"))
        assert not list(out.iterdir())

    def test_unwritable_view_leaves_no_container(self, tmp_path, capsys):
        # encrypt writes both of its outputs or neither
        src = write_ppm(tmp_path / "in.ppm", random_image(4, 4, 3, seed=5))
        out = tmp_path / "ok.vpaes"
        view = tmp_path / "missing" / "v.ppm"
        assert main(["encrypt", "--in", src, "--key", KEY, "--out", str(out),
                     "--view", str(view)]) == 4
        assert capsys.readouterr().err.endswith(
            f"No such file or directory: '{view}'\n")
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-vpaes-*"))

    def test_view_that_is_a_directory_leaves_no_container(self, tmp_path,
                                                           capsys):
        # every target is checked before the first rename
        src = write_ppm(tmp_path / "in.ppm", random_image(4, 4, 3, seed=5))
        out = tmp_path / "ok.vpaes"
        view = tmp_path / "views"
        view.mkdir()
        assert main(["encrypt", "--in", src, "--key", KEY, "--out", str(out),
                     "--view", str(view)]) == 4
        assert capsys.readouterr().err.endswith(
            f"Is a directory: '{view}'\n")
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-vpaes-*"))

    def test_missing_libcrypto_is_1(self, tmp_path, capsys, monkeypatch):
        # encrypt needs the AES binding and writes nothing without it;
        # analyze runs no cipher code
        src = write_ppm(tmp_path / "in.ppm", random_image(64, 64, 3, seed=5))
        enc = tmp_path / "o.vpaes"
        assert main(["encrypt", "--in", src, "--out", str(enc),
                     "--key", KEY]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cipher, "_LIBCRYPTO", None)
        out = tmp_path / "again.vpaes"
        assert main(["encrypt", "--in", src, "--out", str(out),
                     "--key", KEY, "--view", str(tmp_path / "v.ppm")]) == 1
        assert "libcrypto" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "v.ppm").exists()
        assert not list(tmp_path.glob(".tmp-vpaes-*"))
        assert main(["analyze", "--in", str(enc), "--out",
                     str(tmp_path / "r.txt")]) == 0

    def test_bad_container_is_5(self, tmp_path):
        bogus = tmp_path / "bogus.vpaes"
        bogus.write_bytes(b"NOTAVALIDCONTAINER")
        assert main(["decrypt", "--in", str(bogus),
                     "--out", str(tmp_path / "o"), "--key", KEY]) == 5

    def test_empty_payload_container_is_5(self, tmp_path):
        import struct
        raw = struct.pack(">5sBIIBH", b"VPAES", 1, 1, 1, 1, 0)  # no payload
        empty = tmp_path / "empty.vpaes"
        empty.write_bytes(raw)
        assert main(["decrypt", "--in", str(empty),
                     "--out", str(tmp_path / "o"), "--key", KEY]) == 5

    def test_flat_image_analysis_is_6(self, tmp_path):
        from vpaes.imageio import ImageBuffer
        img = ImageBuffer(64, 64, 1, bytes([200]) * 4096)
        src = write_ppm(tmp_path / "flat.pgm", img)
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", src, "--out", str(out),
                     "--report", "json"]) == 6
        doc = json.loads(out.read_text())
        by_test = {}
        for entry in doc["results"]:
            by_test.setdefault(entry["test"], []).append(entry)
        assert by_test["entropy"][0]["statistic"] == 0.0
        assert math.copysign(1.0, by_test["entropy"][0]["statistic"]) == 1.0
        assert by_test["chi_square_tone"][0]["decision"] == "rejected"
        assert all("error" in e for e in by_test["correlation_horizontal"])

    def test_single_pixel_sensitivity_is_6(self, tmp_path, capsys):
        # every sample lands on the one pixel, so the correlation's inputs
        # have zero variance: an unmet precondition, as in analyze
        img = random_image(1, 1, 3, seed=13)
        src = write_ppm(tmp_path / "one.ppm", img)
        assert main(["sensitivity", "--in", src, "--key", KEY]) == 6
        assert "zero variance" in capsys.readouterr().err


class TestReportProvenance:
    COMMON = {"command", "input", "input_sha256", "version", "results"}

    @pytest.mark.parametrize("command, extra, fields", [
        ("analyze", [], {"seed", "alpha", "samples"}),
        ("select-score", [], set()),
        ("sensitivity", ["--key", KEY], {"seed", "samples"}),
    ], ids=["analyze", "select-score", "sensitivity"])
    def test_top_level_keys(self, tmp_path, command, extra, fields):
        src = write_ppm(tmp_path / "in.ppm", random_image(64, 64, 3, seed=13))
        out = tmp_path / "report.json"
        assert main([command, "--in", src, "--out", str(out),
                     "--report", "json", *extra]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == self.COMMON | fields
        assert doc["command"] == command
        assert doc["input"] == src
        assert doc["version"] == vpaes.__version__

    @pytest.mark.parametrize("command, extra, container", [
        ("analyze", [], False),
        ("analyze", [], True),
        ("select-score", [], False),
        ("sensitivity", ["--key", KEY], False),
    ], ids=["analyze", "analyze-container", "select-score", "sensitivity"])
    def test_input_read_once(self, tmp_path, monkeypatch, command, extra,
                             container):
        # one read serves the decoder and input_sha256, so the digest names
        # the bytes that were analysed
        src = write_ppm(tmp_path / "in.ppm", random_image(64, 64, 3, seed=14))
        if container:
            enc = str(tmp_path / "in.vpaes")
            assert main(["encrypt", "--in", src, "--out", enc,
                         "--key", KEY]) == 0
            src = enc
        out = tmp_path / "report.json"
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main([command, "--in", src, "--out", str(out),
                     "--report", "json", *extra]) == 0
        monkeypatch.undo()
        assert opened.count(src) == 1
        with open(src, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert json.loads(out.read_text())["input_sha256"] == digest


class TestAnalyze:
    def test_cipher_container_analysis(self, tmp_path):
        img = random_image(64, 64, 3, seed=7)
        src = write_ppm(tmp_path / "in.ppm", img)
        enc = str(tmp_path / "o.vpaes")
        assert main(["encrypt", "--in", src, "--out", enc,
                     "--key", KEY]) == 0
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", enc, "--out", str(out),
                     "--report", "json", "--seed", "3"]) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 3
        assert doc["alpha"] == 0.01
        assert len(doc["input_sha256"]) == 64
        tests = {e["test"] for e in doc["results"]}
        assert tests == {"entropy", "correlation_horizontal",
                         "correlation_vertical", "correlation_diagonal",
                         "spectral_dft", "chi_square_tone"}
        channels = {e["channel"] for e in doc["results"]}
        assert channels == {"red", "green", "blue"}
        entropies = [e["statistic"] for e in doc["results"]
                     if e["test"] == "entropy"]
        assert all(h > 7.5 for h in entropies)

    def test_json_report_is_byte_identical_across_runs(self, tmp_path):
        img = random_image(64, 64, 3, seed=8)
        src = write_ppm(tmp_path / "in.ppm", img)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["analyze", "--in", src, "--out", str(out),
                         "--report", "json", "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_text_report_to_stdout(self, tmp_path, capsys):
        img = random_image(64, 64, 3, seed=9)
        src = write_ppm(tmp_path / "in.ppm", img)
        assert main(["analyze", "--in", src]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out and "chi_square_tone" in out

    def test_alpha_restricted(self, tmp_path):
        img = random_image(64, 64, 3, seed=9)
        src = write_ppm(tmp_path / "in.ppm", img)
        with pytest.raises(SystemExit):
            main(["analyze", "--in", src, "--alpha", "0.05"])


class TestSelectScore:
    def test_text_image_scores_high(self, tmp_path):
        img = text_style_image(128, 128)
        src = write_ppm(tmp_path / "text.ppm", img)
        out = tmp_path / "scores.json"
        assert main(["select-score", "--in", src, "--out", str(out),
                     "--report", "json"]) == 0
        doc = json.loads(out.read_text())
        scores = {e["channel"]: e["statistic"] for e in doc["results"]}
        assert set(scores) == {"red", "green", "blue"}
        assert all(v > 1e5 for v in scores.values())

    def test_deterministic(self, tmp_path):
        img = random_image(32, 32, 3, seed=10)
        src = write_ppm(tmp_path / "in.ppm", img)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["select-score", "--in", src, "--out", str(out),
                         "--report", "json"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSensitivity:
    def test_small_image_reports_per_channel(self, tmp_path):
        img = random_image(48, 48, 3, seed=11)
        src = write_ppm(tmp_path / "in.ppm", img)
        out = tmp_path / "sens.json"
        assert main(["sensitivity", "--in", src, "--key", KEY,
                     "--out", str(out), "--report", "json",
                     "--samples", "1000"]) == 0
        doc = json.loads(out.read_text())
        channels = {e["channel"]: e["statistic"] for e in doc["results"]
                    if e["test"] == "sensitivity_correlation"}
        assert set(channels) == {"red", "green", "blue"}
        top = [e for e in doc["results"]
               if e["test"] == "sensitivity_correlation_max_abs"]
        assert top and top[0]["statistic"] == pytest.approx(
            max(abs(v) for v in channels.values()))

    def test_all_ones_key_is_2(self, tmp_path):
        img = random_image(8, 8, 3, seed=12)
        src = write_ppm(tmp_path / "in.ppm", img)
        assert main(["sensitivity", "--in", src, "--key", "f" * 32]) == 2
