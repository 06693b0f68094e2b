"""Frozen bytes, each checked on one CPU and on two: sha256 digests of
payloads, keystream prefixes, containers, cipher views, decrypted files and
reports, and the reports' values. Regenerating a digest changes the contract
that ciphertexts for a given (key, payload) stay byte-identical; do it only
on purpose, and say so. Inputs are generated in the test."""

import hashlib
import json

import numpy as np
import pytest

from conftest import make_bmp_bytes, random_image
from vpaes import _host, cipher
from vpaes.cipher import decrypt_payload, encrypt_payload
from vpaes.cli import main
from vpaes.imageio import load_image
from vpaes.keystream import (
    Key128, key_to_integer, pi_fraction_bytes, required_byte_count)

KEY = Key128(bytes.fromhex("6a09e667f3bcc908b2fb1367ea1d7a3b"))
# the acceptance suite's reference key
REFERENCE_KEY = Key128(bytes.fromhex("0123456789abcdeffedcba9876543210"))
CHUNK_KEY = Key128(bytes.fromhex("fedcba9876543210fedcba9876543210"))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def noise(n, message=b"vpaes contract"):
    return hashlib.shake_256(message).digest(n)


@pytest.fixture
def one_cpu_and_two(monkeypatch, forks):
    """check(run, forked=0): run() with one CPU, then with two. Both runs
    must return the same value, which check returns; the first may not
    fork, and the two runs fork `forked` times in all."""
    def check(run, forked=0):
        values = []
        for cpus in (1, 2):
            monkeypatch.setattr(_host, "available_cpus", lambda: cpus)
            values.append(run())
            assert len(forks) == forked * (cpus - 1)
        assert values[0] == values[1]
        return values[0]
    return check


# blocks: (shake_256 message, key, _SPLIT_BLOCKS, (encrypt, decrypt)
# digests) of the first 16 * blocks bytes of the message. With the default
# split: one block either side of a chunk edge, a partial chunk past two,
# and the smallest payload that splits between two processes. With the
# split lowered to 10,007 blocks, more than two full chunks and a partial
# one, split mid-chunk (digests of the one-pass implementation).
SPLIT = cipher._SPLIT_BLOCKS
PAYLOADS = {
    4_095: (b"vpaes contract", KEY, SPLIT, (
        "56e9e1e49927ccf3b467a258c475a83d90da7cddffcfca710fbf89350ced843a",
        "8e8345de4cff13f4a0d7ed4eeafb1807b44492bbefa5f9cce3745d65f7fd354e")),
    4_096: (b"vpaes contract", KEY, SPLIT, (
        "5b42fa2d5a8d3f3f606e5fbe8115bf8024fa5b5874cb0bb0aa9525f92320261f",
        "217fbb280af7c8ccba2345708375bd155de8c4e1bc420499e74dea43c3710968")),
    4_097: (b"vpaes contract", KEY, SPLIT, (
        "55657e91c6287a9365d1aaa3d338b619c6518b7799faecbc0985df56b739b48a",
        "d39096e05f878da4388967642cf42c39f419a2e0fc743d1fec583f3ddea5db00")),
    8_193: (b"vpaes contract", KEY, SPLIT, (
        "850b9b50071c8794883eb00ea5c5a2f6e6dfb9ee6e353d58132b79b8f6344ab6",
        "b1fcafd98244f4865bf406e2faeac746fab805b35cfb41184c9d8215e0579bce")),
    16_384: (b"vpaes contract", KEY, SPLIT, (
        "f567be06d75b932ca76afc5abf4c0a6ae08233657ef2cf69f348ba24b0e27e06",
        "c540c86d462eb75b2df01cae783df27fc1ece79586d23cab42fd7bc56e5ab63a")),
    10_007: (b"vpaes chunk edges", CHUNK_KEY, 10_007, (
        "c791a26bee190cbb576c26aca39f067bbf759f7814fe5b446b59ae3796e09f4f",
        "b3d062f0c4a3dd95cc92d7ca462b6c9df7545cd4825656d800b081126f505d0d")),
}


@pytest.mark.parametrize("blocks", PAYLOADS)
def test_payload_digests_on_one_cpu_and_two(monkeypatch, one_cpu_and_two,
                                            blocks):
    message, key, split, digests = PAYLOADS[blocks]
    if split != SPLIT:  # past two full chunks, and a partial one
        assert blocks > 2 * cipher.CHUNK_BLOCKS
        assert blocks % cipher.CHUNK_BLOCKS
    data = noise(16 * blocks, message)
    monkeypatch.setattr(cipher, "_SPLIT_BLOCKS", split)
    assert one_cpu_and_two(
        lambda: (sha256(encrypt_payload(data, key)),
                 sha256(decrypt_payload(data, key))),
        forked=2 * (blocks >= split)) == digests


# one window, the stream a 16,384-block payload reads, and 20,000 bytes
# under the reference key, whose digest an earlier, Machin-arctangent
# computation of pi gave: any change to pi that alters a byte fails here
@pytest.mark.parametrize("count, digest, key", [
    (127, "e576a8d577d5ca78344dd0e44dcd6c565b3a4c0adb520c065bc038ba465dd6d2",
     KEY),
    (required_byte_count(16384),
     "4ee1cc2c5247109088001395d9f4eb9a093e10527bbf0d32428246183c14dce2", KEY),
    (20_000,
     "50d2b94c66783d406675fa42921a5d96e2c5e5378ea472095682c9fea3f68ea6",
     REFERENCE_KEY),
])
def test_keystream_digest(one_cpu_and_two, count, digest, key):
    assert one_cpu_and_two(lambda: sha256(pi_fraction_bytes(
        key_to_integer(key), count).data)) == digest


def pnm(magic, width, height, pixels=None):
    """A P5 or P6 file of `pixels`, by default the first shake_256 bytes."""
    if pixels is None:
        pixels = noise(width * height * (3 if magic == b"P6" else 1))
    return b"%s\n%d %d\n255\n" % (magic, width, height) + pixels


HEX_KEY = KEY.data.hex()
CLI_KEY = "000102030405060708090a0b0c0d0e0f"

# (input file, --key, sha256 of the container, --view file and decrypted
# file) through the CLI: a single block (its one window is the whole
# 127-byte stream), a 3-block colour image, a 256-block grey image, a
# 31-digit key, which the CLI left-pads with one zero, and first pixel
# bytes that a PNM header parser must not skip as whitespace. The 512x512
# P6 and the BMP reach _SPLIT_BLOCKS, so with two CPUs half their blocks run
# in the payload helper; the BMP's split runs into a partial last chunk,
# and the 97x103 P5 (nonzero pad) stays on one process.
CONTAINERS = {
    "p6-1x1": (pnm(b"P6", 1, 1), HEX_KEY,
        "efdeef55e19a67abd50cf9969476bd335086dceb8d66167109aa9d1d8983a0a9",
        "37ca5dccf1b1a3250f255167416191c91b61dfed221cf21d79da6f806aabba2b",
        "29a5316180d00979fa1baadea10d44f55183bffc726f466e6bb6e374843849df"),
    "p6-4x3": (pnm(b"P6", 4, 3), HEX_KEY,
        "1dd5522c7e84316a78f35d2725e1113e99784deca91892bfbb018d4706db01a0",
        "b03c6e4e9ab3c52a6157588c63d143dc6195f7bf64b8a19083e88a422816f358",
        "98f724607725f61a57093f0fb2c6bc094e7bdfd729b2f0635a9b72a338d659f8"),
    "p5-64x64": (pnm(b"P5", 64, 64), HEX_KEY,
        "d803e7632c2e7f68fbc292629299a2b9a0a098cf1c9c7143b098ca8ef0ea0401",
        "49f62c0fdf22f4f4e912189c261bf9b8fc032d20ade213fafc50ee542c7ca574",
        "264941834fb7ce700cd93b2fee9f58670c12d27531ccfe889b498ecae0df7b7c"),
    "p6-4x3-31-digit-key": (pnm(b"P6", 4, 3), HEX_KEY[1:],
        "b2851b1aed9c934781c525a2055cb07b4b792e677137e04031ed665852805acd",
        "4ddb499f4cf853b3970817939e4f9f79b06709ee9b7728c0bf56d7d308c6638f",
        "98f724607725f61a57093f0fb2c6bc094e7bdfd729b2f0635a9b72a338d659f8"),
    "p5-4x3-newline-first": (pnm(b"P5", 4, 3, b"\n" + noise(11)), HEX_KEY,
        "e1bfc8ace089585a22d93cab99ca8ea9922a877cd0ee18121f0e9f68191a2709",
        "3d1fdad58e550a62f8ffa53d88821ba9398c62745a5ce5fc5513a05eaa068cf7",
        "390f9f12e9cc5637c91c8c698601b77e2ecda46118c65d62eb235570f7bd38d2"),
    "p6-4x3-space-first": (pnm(b"P6", 4, 3, b" " + noise(35)), HEX_KEY,
        "635d42a2b3cd093507779881a6d086e68e6939d85671442445029631fa148175",
        "21a9ea76436696188e6d7192004dc69975e9a8611f8483234564619218729e4a",
        "d914b40d34c85ef65c54fd88ab75fff8ec91170a1d100ed09cbf85b5c76ebc7c"),
    "p6-512x512": (pnm(
        b"P6", 512, 512, random_image(512, 512, 3, seed=20).data), CLI_KEY,
        "b92f58d65122ecc33dae3c148a2ef69648b57d62cd6adf4cdff524a0b5719b09",
        "81267c9aba0be0bada62eedb125b2bb6604a12bb7be4e4863e5625d6a78d614f",
        "b190fc207e8f09747517fd6d86acf2732bf32f89ab5ecb165a66a3c9f6b5d159"),
    "bmp-333x500": (make_bmp_bytes(
        random_image(333, 500, 3, seed=21)), CLI_KEY,
        "655f94399a818924ff0405f74ebe869f378f1317dd64eb29a448939dafe56632",
        "072b1bbf939228703a3c463daa56461217ff1faa2d71b2c6b082d4414f1cdd06",
        "19daed6de9a5a82ab4b775ffdee4c7b78fbb57465baafb7b38bc31c6a6ff505d"),
    "p5-97x103": (pnm(
        b"P5", 97, 103, random_image(97, 103, 1, seed=22).data), CLI_KEY,
        "8079b5e7573a5ed37ad51e6600b73247b3b8a39f9d0f07f0e102aba724a0bdfd",
        "d3c6048be56aecfd41b2c81b9047ca572381b5f74bfeae4bd5d108c2f5237d38",
        "0caf67bbd980de1b327c9455cd7e0d4e658a62bb782aacf7817a20af96fd133c"),
}


@pytest.mark.parametrize("case", CONTAINERS)
def test_container_digest(tmp_path, one_cpu_and_two, case):
    data, key, *digests = CONTAINERS[case]
    src = tmp_path / "in"
    src.write_bytes(data)
    files = [tmp_path / f for f in ("ct.vpaes", "view.ppm", "back.ppm")]
    enc, view, back = map(str, files)

    def run():
        for f in files:
            f.unlink(missing_ok=True)
        assert main(["encrypt", "--in", str(src), "--out", enc,
                     "--key", key, "--view", view]) == 0
        assert main(["decrypt", "--in", enc, "--out", back,
                     "--key", key]) == 0
        return [sha256(f.read_bytes()) for f in files]

    blocks = -(-len(load_image(str(src)).data) // 16)
    assert one_cpu_and_two(run, forked=2 * (blocks >= SPLIT)) == digests


# The reports on a 64x64 P6, entry by entry as (test, channel, fields). The
# floats come from numpy's arithmetic, so they are held to 1e-12 relative;
# the integers and strings exactly.
REPORTS = {
    "analyze": [
        ("entropy", "red", {"statistic": 7.956214096492566}),
        ("entropy", "green", {"statistic": 7.956155868163473}),
        ("entropy", "blue", {"statistic": 7.959262568284203}),
        ("correlation_horizontal", "red",
         {"statistic": 0.010031376925153095}),
        ("correlation_horizontal", "green",
         {"statistic": 0.009740125339188879}),
        ("correlation_horizontal", "blue",
         {"statistic": 0.019672721563698505}),
        ("correlation_vertical", "red",
         {"statistic": -0.007828840370756648}),
        ("correlation_vertical", "green",
         {"statistic": -0.01891322529940575}),
        ("correlation_vertical", "blue",
         {"statistic": -0.020682926630438254}),
        ("correlation_diagonal", "red",
         {"statistic": 0.026656182801792876}),
        ("correlation_diagonal", "green",
         {"statistic": -0.003885478828101426}),
        ("correlation_diagonal", "blue",
         {"statistic": 0.021720550657773275}),
        ("spectral_dft", "red", {
            "alpha": 0.01, "decision": "accepted", "n": 32768, "n0": 15564.8,
            "n1": 15602, "p_value": 0.05931867287269061,
            "peak_threshold": 313.3115943271445,
            "statistic": 1.8858240206451513}),
        ("spectral_dft", "green", {
            "alpha": 0.01, "decision": "accepted", "n": 32768, "n0": 15564.8,
            "n1": 15603, "p_value": 0.05280426387558281,
            "peak_threshold": 313.3115943271445,
            "statistic": 1.9365182147485147}),
        ("spectral_dft", "blue", {
            "alpha": 0.01, "decision": "accepted", "n": 32768, "n0": 15564.8,
            "n1": 15584, "p_value": 0.330390048848776,
            "peak_threshold": 313.3115943271445,
            "statistic": 0.9733285267846121}),
        ("chi_square_tone", "red", {
            "alpha": 0.01, "decision": "accepted",
            "p_value": 0.658949688158669,
            "p_value_exact_chi2": 0.6498964109850686, "statistic": 245.75}),
        ("chi_square_tone", "green", {
            "alpha": 0.01, "decision": "accepted",
            "p_value": 0.696641540021577,
            "p_value_exact_chi2": 0.6890506445232293, "statistic": 243.375}),
        ("chi_square_tone", "blue", {
            "alpha": 0.01, "decision": "accepted",
            "p_value": 0.882986471732127,
            "p_value_exact_chi2": 0.8858661480363, "statistic": 228.125}),
    ],
    "select-score": [
        ("selection_score", "red", {"statistic": 245.75}),
        ("selection_score", "green", {"statistic": 243.375}),
        ("selection_score", "blue", {"statistic": 228.125}),
    ],
    "sensitivity": [
        ("sensitivity_correlation", "red",
         {"statistic": 0.02570810867927327}),
        ("sensitivity_correlation", "green",
         {"statistic": -0.014234420449522035}),
        ("sensitivity_correlation", "blue",
         {"statistic": -0.004240926724634066}),
        ("sensitivity_correlation_max_abs", "all",
         {"statistic": 0.02570810867927327}),
    ],
}
# sha256 of each whole report as the CLI writes it, less the line of
# "input" (the path); other numpy builds may round the floats differently
REPORT_NUMPY = "2.4.6"
REPORT_DIGESTS = {
    "analyze":
        "318d8a0250bb1c376479be42fafb451dbfb00da30ed1d78cec584dcafbed2850",
    "select-score":
        "54c76baee4d94f81c095e62cab899cb6a1135f0b260f59f53116aab77dab73ac",
    "sensitivity":
        "d277940770cf568233969b8c667d8e025341ccb3f44b9bfc3679a5c552368010",
}


def report(tmp_path, command, image):
    """The CLI's JSON report of `command` on `image`, less its "input" line."""
    src, out = tmp_path / "in", tmp_path / "report.json"
    src.write_bytes(image)
    extra = ["--key", HEX_KEY] if command == "sensitivity" else []
    assert main([command, "--in", str(src), "--out", str(out),
                 "--report", "json", *extra]) == 0
    return "".join(line for line in out.read_text().splitlines(keepends=True)
                   if not line.startswith('  "input": '))


@pytest.mark.parametrize("command", REPORTS)
def test_report_values(tmp_path, one_cpu_and_two, command):
    results = json.loads(one_cpu_and_two(
        lambda: report(tmp_path, command, pnm(b"P6", 64, 64))))["results"]
    assert [(e["test"], e["channel"]) for e in results] == [
        (test, channel) for test, channel, _ in REPORTS[command]]
    for entry, (_, _, fields) in zip(results, REPORTS[command]):
        assert set(entry) == {"test", "channel", *fields}
        for name, value in fields.items():
            if isinstance(value, float):
                assert entry[name] == pytest.approx(value, rel=1e-12), name
            else:
                assert entry[name] == value and type(entry[name]) is type(
                    value), name


@pytest.mark.skipif(
    np.__version__ != REPORT_NUMPY,
    reason=f"report digests are frozen under numpy {REPORT_NUMPY}, whose "
           f"float rounding they fix; this is numpy {np.__version__}")
@pytest.mark.parametrize("command", REPORTS)
def test_report_digest(tmp_path, one_cpu_and_two, command):
    assert sha256(one_cpu_and_two(
        lambda: report(tmp_path, command, pnm(b"P6", 64, 64))).encode()) == (
            REPORT_DIGESTS[command])


# the spectral test's (n, n1) by channel on a 512x512 P6: 2^21 bits a
# channel, which the kernel splits between two threads on two CPUs
SPECTRAL_512 = {"red": (2_097_152, 996_068), "green": (2_097_152, 996_370),
                "blue": (2_097_152, 996_004)}


def test_analyze_512x512(tmp_path, monkeypatch, one_cpu_and_two):
    parts, in_parts = [], _host.in_parts
    monkeypatch.setattr(_host, "in_parts",
                        lambda n, work: parts.append(n) or in_parts(n, work))
    results = json.loads(one_cpu_and_two(
        lambda: report(tmp_path, "analyze", pnm(b"P6", 512, 512))))["results"]
    assert {e["channel"]: (e["n"], e["n1"]) for e in results
            if e["test"] == "spectral_dft"} == SPECTRAL_512
    # both stages of each channel: in one part on one CPU, two on two
    assert parts == [1] * 6 + [2] * 6
