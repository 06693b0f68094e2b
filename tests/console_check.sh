#!/usr/bin/env bash
# End to end through the installed `vpaes` console script, which no test calls:
# a 4x3 and a 512x512 P6 round trip must give back the input's bytes, a
# negative --seed and sensitivity's --alpha (only analyze takes one) must be
# usage errors (exit 2), analyze on a 64x64 and on a 256x256 container must
# exit 0 with all 18 results (6 tests x 3 channels) and no error entry, and
# select-score and sensitivity on the 64x64 image must exit 0 with one result
# a channel (sensitivity adds the largest |r|). Where the process may run on
# two CPUs, each 512x512 command computes pi cold with the keystream's forked
# helper and then runs half its payload in the payload's, and a 256x256
# channel of 2^19 bits is the first length whose spectral test splits between
# two threads. It runs in a temporary directory, and a CPU pinning such as
# `taskset -c 0 bash tests/console_check.sh` holds for each command it starts.
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
key=000102030405060708090a0b0c0d0e0f
python -c "import sys; sys.stdout.buffer.write(b'P6\n4 3\n255\n' + bytes(range(36)))" > in.ppm
vpaes encrypt --in in.ppm --out ct.vpaes --key $key --view ct.ppm
vpaes decrypt --in ct.vpaes --out back.ppm --key $key
cmp in.ppm back.ppm
python -c "import hashlib, sys; sys.stdout.buffer.write(b'P6\n512 512\n255\n' + hashlib.shake_256(b'vpaes').digest(786432))" > rgb.ppm
vpaes encrypt --in rgb.ppm --out rgb.vpaes --key $key --view rgb-view.ppm
vpaes decrypt --in rgb.vpaes --out rgb-back.ppm --key $key
cmp rgb.ppm rgb-back.ppm
status=0
vpaes analyze --in in.ppm --seed -1 || status=$?
test "$status" -eq 2
python -c "import sys; sys.stdout.buffer.write(b'P6\n64 64\n255\n' + bytes(range(256)) * 48)" > sq.ppm
vpaes encrypt --in sq.ppm --out ct.vpaes --key $key
python -c "import sys; sys.stdout.buffer.write(b'P6\n256 256\n255\n' + bytes(range(256)) * 768)" > big.ppm
vpaes encrypt --in big.ppm --out big.vpaes --key $key
for container in ct.vpaes big.vpaes; do
    vpaes analyze --in $container --report json --out r.json
    python -c "import json; r = json.load(open('r.json'))['results']; assert len(r) == 18 and all('error' not in e for e in r), r"
done
vpaes select-score --in sq.ppm --report json --out s.json
python -c "import json; r = json.load(open('s.json'))['results']; assert len(r) == 3, r"
vpaes sensitivity --in sq.ppm --key $key --report json --out k.json
python -c "import json; r = json.load(open('k.json'))['results']; assert len(r) == 4, r"
status=0
vpaes sensitivity --in sq.ppm --key $key --alpha 0.01 || status=$?
test "$status" -eq 2
echo "console check passed"
