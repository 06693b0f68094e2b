"""Frozen bytes: sha256 digests of payloads, keystream prefixes, containers
and reports, and the reports' values.

Regenerating a digest here changes the contract that ciphertexts for a
given (key, payload) stay byte-identical; do it only on purpose, and say
so. Inputs are generated in the test: a fixed key and shake_256 bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from vpaes import _host, cipher
from vpaes.cipher import decrypt_payload, encrypt_payload
from vpaes.cli import main
from vpaes.keystream import (
    Key128, key_to_integer, pi_fraction_bytes, required_byte_count)

KEY = Key128(bytes.fromhex("6a09e667f3bcc908b2fb1367ea1d7a3b"))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# (encrypt, decrypt) digests of the first 16 * blocks shake_256 bytes: one
# block either side of a chunk edge, a partial chunk past two, and the
# smallest payload that splits between two processes
PAYLOAD_DIGESTS = {
    4_095: (
        "56e9e1e49927ccf3b467a258c475a83d90da7cddffcfca710fbf89350ced843a",
        "8e8345de4cff13f4a0d7ed4eeafb1807b44492bbefa5f9cce3745d65f7fd354e"),
    4_096: (
        "5b42fa2d5a8d3f3f606e5fbe8115bf8024fa5b5874cb0bb0aa9525f92320261f",
        "217fbb280af7c8ccba2345708375bd155de8c4e1bc420499e74dea43c3710968"),
    4_097: (
        "55657e91c6287a9365d1aaa3d338b619c6518b7799faecbc0985df56b739b48a",
        "d39096e05f878da4388967642cf42c39f419a2e0fc743d1fec583f3ddea5db00"),
    8_193: (
        "850b9b50071c8794883eb00ea5c5a2f6e6dfb9ee6e353d58132b79b8f6344ab6",
        "b1fcafd98244f4865bf406e2faeac746fab805b35cfb41184c9d8215e0579bce"),
    16_384: (
        "f567be06d75b932ca76afc5abf4c0a6ae08233657ef2cf69f348ba24b0e27e06",
        "c540c86d462eb75b2df01cae783df27fc1ece79586d23cab42fd7bc56e5ab63a"),
}


@pytest.mark.parametrize("blocks", PAYLOAD_DIGESTS)
def test_payload_digests_on_one_cpu_and_two(monkeypatch, forks, blocks):
    data = hashlib.shake_256(b"vpaes contract").digest(16 * blocks)
    for cpus in (1, 2):
        monkeypatch.setattr(_host, "available_cpus", lambda: cpus)
        assert (sha256(encrypt_payload(data, KEY)),
                sha256(decrypt_payload(data, KEY))) == PAYLOAD_DIGESTS[blocks]
    assert len(forks) == 2 * (blocks >= cipher._SPLIT_BLOCKS)


# one window, and the stream a 16,384-block payload reads
@pytest.mark.parametrize("count, digest", [
    (127, "e576a8d577d5ca78344dd0e44dcd6c565b3a4c0adb520c065bc038ba465dd6d2"),
    (required_byte_count(16384),
     "4ee1cc2c5247109088001395d9f4eb9a093e10527bbf0d32428246183c14dce2"),
])
def test_keystream_digest(count, digest):
    assert sha256(pi_fraction_bytes(key_to_integer(KEY), count).data) == digest


def pnm(magic, width, height):
    """A P5 or P6 file of the first shake_256 bytes as its pixels."""
    channels = 3 if magic == b"P6" else 1
    return b"%s\n%d %d\n255\n" % (magic, width, height) + hashlib.shake_256(
        b"vpaes contract").digest(width * height * channels)


HEX_KEY = KEY.data.hex()

# containers through the CLI: a single block (its one window is the whole
# 127-byte stream), a 3-block colour image, a 256-block grey image, and a
# 31-digit key, which the CLI left-pads with one zero
CONTAINERS = {
    "p6-1x1": (pnm(b"P6", 1, 1), HEX_KEY),
    "p6-4x3": (pnm(b"P6", 4, 3), HEX_KEY),
    "p5-64x64": (pnm(b"P5", 64, 64), HEX_KEY),
    "p6-4x3-31-digit-key": (pnm(b"P6", 4, 3), HEX_KEY[1:]),
}
CONTAINER_DIGESTS = {
    "p6-1x1":
        "efdeef55e19a67abd50cf9969476bd335086dceb8d66167109aa9d1d8983a0a9",
    "p6-4x3":
        "1dd5522c7e84316a78f35d2725e1113e99784deca91892bfbb018d4706db01a0",
    "p5-64x64":
        "d803e7632c2e7f68fbc292629299a2b9a0a098cf1c9c7143b098ca8ef0ea0401",
    "p6-4x3-31-digit-key":
        "b2851b1aed9c934781c525a2055cb07b4b792e677137e04031ed665852805acd",
}


@pytest.mark.parametrize("case", CONTAINERS)
def test_container_digest(tmp_path, case):
    data, key = CONTAINERS[case]
    src, out = tmp_path / "in", tmp_path / "ct.vpaes"
    src.write_bytes(data)
    assert main(["encrypt", "--in", str(src), "--out", str(out),
                 "--key", key]) == 0
    assert sha256(out.read_bytes()) == CONTAINER_DIGESTS[case]


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


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Each command's JSON report on the 64x64 P6: its text without the
    "input" line, and its parsed entries."""
    work = tmp_path_factory.mktemp("reports")
    src = work / "in.ppm"
    src.write_bytes(pnm(b"P6", 64, 64))
    docs = {}
    for command in REPORTS:
        out = work / f"{command}.json"
        extra = ["--key", HEX_KEY] if command == "sensitivity" else []
        assert main([command, "--in", str(src), "--out", str(out),
                     "--report", "json", *extra]) == 0
        text = out.read_text()
        docs[command] = (
            "".join(line for line in text.splitlines(keepends=True)
                    if not line.startswith('  "input": ')),
            json.loads(text)["results"])
    return docs


@pytest.mark.parametrize("command", REPORTS)
def test_report_values(reports, command):
    results = reports[command][1]
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
def test_report_digest(reports, command):
    assert sha256(reports[command][0].encode()) == REPORT_DIGESTS[command]
