"""Frozen bytes: sha256 digests of payloads and keystream prefixes.

Regenerating a digest here changes the contract that ciphertexts for a
given (key, payload) stay byte-identical; do it only on purpose, and say
so. Inputs are generated in the test: a fixed key and shake_256 bytes.
"""

import hashlib

import pytest

from vpaes import _host, cipher
from vpaes.cipher import decrypt_payload, encrypt_payload
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
