#!/usr/bin/env bash
# End to end through the installed `vpaes` console script, which no test
# calls: a P6 round trip must give back the input's bytes, a negative --seed
# must be a usage error (exit 2), and analyze on a 64x64 container must exit
# 0 with all 18 results (6 tests x 3 channels) and no error entry. It runs
# in a temporary directory; a CPU pinning such as `taskset -c 0 bash
# tests/console_check.sh` holds for every command it starts.
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
key=000102030405060708090a0b0c0d0e0f
python -c "import sys; sys.stdout.buffer.write(b'P6\n4 3\n255\n' + bytes(range(36)))" > in.ppm
vpaes encrypt --in in.ppm --out ct.vpaes --key $key --view ct.ppm
vpaes decrypt --in ct.vpaes --out back.ppm --key $key
cmp in.ppm back.ppm
status=0
vpaes analyze --in in.ppm --seed -1 || status=$?
test "$status" -eq 2
python -c "import sys; sys.stdout.buffer.write(b'P6\n64 64\n255\n' + bytes(range(256)) * 48)" > sq.ppm
vpaes encrypt --in sq.ppm --out ct.vpaes --key $key
vpaes analyze --in ct.vpaes --report json --out r.json
python -c "import json; r = json.load(open('r.json'))['results']; assert len(r) == 18 and all('error' not in e for e in r), r"
echo "console check passed"
