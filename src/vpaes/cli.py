"""Command-line front end: encrypt, decrypt, analyze, select-score,
sensitivity.

Exit codes: 0 ok, 2 bad key, 3 bad image, 4 I/O, 5 bad container,
6 statistical-test precondition unmet, 1 any other package error.
"""

import argparse
import functools
import hashlib
import json
import re
import sys
import time

from . import __version__, randstat
from .cipher import BLOCK_BYTES, encrypt_payload, decrypt_payload
from .errors import (
    ContainerError,
    ImageFormatError,
    KeyFormatError,
    PreconditionError,
    VpaesError,
)
from .imageio import (
    MAGIC,
    CipherContainer,
    ImageBuffer,
    _atomic_write,
    _read_file,
    cipher_view,
    container_bytes,
    decode_image,
    image_bytes,
    load_image,
    pad_payload,
    parse_container,
    read_container,
    save_image,
    unpad_payload,
)
from .keystream import KEY_BYTES, Key128, key_to_integer

_KEY_MODULUS = 1 << 8 * KEY_BYTES
_KEY_DIGITS = 2 * KEY_BYTES
# The first class an error is an instance of picks the exit code.
_EXIT_CODES = (
    (KeyFormatError, 2),
    (ImageFormatError, 3),
    (ContainerError, 5),
    (PreconditionError, 6),
    (OSError, 4),
    (VpaesError, 1),
)


def parse_key_hex(text):
    """KEY_BYTES key bytes from 2·KEY_BYTES hex characters and nothing else
    between them (``bytes.fromhex`` alone would skip embedded spaces).

    One character fewer is accepted as well (left-padded with one zero):
    some published key listings drop the leading zero.
    """
    t = text.strip()
    if not re.fullmatch(f"[0-9a-fA-F]{{{_KEY_DIGITS - 1},{_KEY_DIGITS}}}", t):
        raise KeyFormatError(
            f"key must be {_KEY_DIGITS} hex digits and nothing else, got "
            f"{len(t)} characters")
    data = bytes.fromhex(t.zfill(_KEY_DIGITS))
    if data == bytes(KEY_BYTES):
        raise KeyFormatError(
            "the all-zero key is invalid: it degenerates the keystream")
    return Key128(data)


def _emit_report(args, digest, results, *fields):
    """Write one report: its provenance (command, input and its sha256,
    package version, and the arguments named in `fields`) and the results,
    as JSON or as one text line per result."""
    document = {"command": args.command, "input": args.input,
                "input_sha256": digest,
                "version": __version__, "results": results}
    document.update((name, getattr(args, name)) for name in fields)
    if args.report == "json":
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for entry in results:
            lead = f"{entry['test']:<24} {entry.get('channel', ''):<6}"
            if "error" in entry:
                lines.append(f"{lead} error: {entry['error']}")
                continue
            line = f"{lead} statistic={entry['statistic']:.6g}"
            if "p_value" in entry:
                line += (f" p_value={entry['p_value']:.6g}"
                         f" decision={entry['decision']}")
            lines.append(line)
        text = "\n".join(lines) + "\n"
    if args.output:
        _atomic_write((args.output, text.encode()))
    else:
        sys.stdout.write(text)


def _load_input(path, decode):
    """decode(the input's bytes) and the sha256 of those bytes, from one
    read: the report's digest names the bytes that were analysed."""
    data = _read_file(path)
    return decode(data), hashlib.sha256(data).hexdigest()


def _plain_or_cipher(data):
    """An image for analysis from the input's bytes: raster files decode
    directly, containers are reinterpreted as a raster of their ciphertext
    bytes (padding dropped)."""
    if data.startswith(MAGIC):
        c = parse_container(data)
        pixels = c.width * c.height * c.channels
        return ImageBuffer(c.width, c.height, c.channels, c.payload[:pixels])
    return decode_image(data)


def cmd_encrypt(args):
    img = load_image(args.input)
    padded, pad_len = pad_payload(img.data)
    start = time.perf_counter()
    ciphertext = encrypt_payload(padded, args.key)
    elapsed = time.perf_counter() - start
    container = CipherContainer(
        img.width, img.height, img.channels, pad_len, ciphertext)
    # both outputs or neither: no container is left without its view
    outputs = [(args.output, container_bytes(container))]
    if args.view:
        outputs.append((args.view, image_bytes(cipher_view(container))))
    _atomic_write(*outputs)
    print(f"blocks={len(padded) // BLOCK_BYTES} pad_len={pad_len} "
          f"elapsed={elapsed:.3f}s")
    return 0


def cmd_decrypt(args):
    container = read_container(args.input)
    plain = decrypt_payload(container.payload, args.key)
    data = unpad_payload(plain, container.pad_len)
    save_image(ImageBuffer(container.width, container.height,
                           container.channels, data), args.output)
    print(f"wrote {args.output}")
    return 0


def _analysis_results(img, args):
    """Each battery test on each channel; an error entry where one fails."""
    r = randstat
    channels = r.channel_names(img.channels)
    # entropy and the chi-square test share one histogram per channel
    hist = {ch: r.tone_histogram(img, ch) for ch in channels}

    def correlation(direction, ch):
        return {"statistic": r.correlation(r.sample_adjacent_pairs(
            img, direction, ch, args.samples, args.seed))}

    # each gives its entry's fields; the two hypothesis tests give all of
    # them, with the same test and channel
    battery = [("entropy", lambda ch: {"statistic": r.entropy(hist[ch])})]
    battery += [(f"correlation_{d}", functools.partial(correlation, d))
                for d in r.DIRECTIONS]
    battery += [("spectral_dft", lambda ch: r.spectral_dft_test(
                    r.channel_bits(img, ch), args.alpha, ch)),
                ("chi_square_tone", lambda ch: r.chi_square_tone_test(
                    hist[ch], args.alpha, ch))]
    results = []
    for name, test in battery:
        for ch in channels:
            try:
                entry = test(ch)
            except VpaesError as exc:
                entry = {"error": str(exc)}
            results.append({"test": name, "channel": ch, **entry})
    return results


def cmd_analyze(args):
    img, digest = _load_input(args.input, _plain_or_cipher)
    results = _analysis_results(img, args)
    _emit_report(args, digest, results, "seed", "alpha", "samples")
    return 6 if any("error" in entry for entry in results) else 0


def cmd_select_score(args):
    img, digest = _load_input(args.input, decode_image)
    scores = randstat.plaintext_selection_score(img)
    _emit_report(args, digest, [
        {"test": "selection_score", "channel": ch, "statistic": value}
        for ch, value in scores.items()
    ])
    return 0


def cmd_sensitivity(args):
    img, digest = _load_input(args.input, decode_image)
    padded, pad_len = pad_payload(img.data)
    bumped = (key_to_integer(args.key) + 1) % _KEY_MODULUS
    if bumped == 0:
        raise KeyFormatError(
            "key + 1 wraps to the all-zero key, which is invalid")
    key_next = Key128(bumped.to_bytes(KEY_BYTES, "big"))
    containers = [
        CipherContainer(img.width, img.height, img.channels, pad_len,
                        encrypt_payload(padded, k))
        for k in (args.key, key_next)
    ]
    correlations = randstat.sensitivity_correlation(
        containers[0], containers[1], args.samples, args.seed)
    results = [
        {"test": "sensitivity_correlation", "channel": ch, "statistic": r}
        for ch, r in correlations.items()
    ]
    results.append({
        "test": "sensitivity_correlation_max_abs", "channel": "all",
        "statistic": max(abs(r) for r in correlations.values()),
    })
    _emit_report(args, digest, results, "seed", "samples")
    return 0


def _at_least(minimum, maximum=None):
    """An argparse type: an integer no smaller than `minimum` and, if one
    is given, no larger than `maximum`."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be at most {maximum}, got {value}")
        return value
    return integer


@functools.cache  # parse_args keeps no state in the parser
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vpaes",
        description="Lossless image encryption with per-block variable "
                    "bit permutations, plus a randomness test battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, key=False, output=False, stats=False, view=False):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, needs_key=key)
        p.add_argument("--in", dest="input", required=True,
                       metavar="PATH", help="input file")
        p.add_argument("--out", dest="output", required=output,
                       metavar="PATH", help="output file" if output else
                       "write the report here instead of stdout")
        if key:
            p.add_argument("--key", required=True, metavar=f"HEX{_KEY_DIGITS}",
                           help=f"{8 * KEY_BYTES}-bit key as {_KEY_DIGITS} "
                           "hex characters")
        if stats:
            # a correlation needs at least two pixel pairs
            p.add_argument("--samples",
                           type=_at_least(2, randstat.MAX_SAMPLES),
                           default=randstat.DEFAULT_SAMPLES)
            p.add_argument("--seed", type=_at_least(0), default=0)
        if not output:  # a report, written to --out or to stdout
            p.add_argument("--report", choices=["text", "json"],
                           default="text")
        if view:
            p.add_argument("--view", metavar="PATH",
                           help="also write the ciphertext as a P6 image")
        return p

    add("encrypt", cmd_encrypt, key=True, output=True, view=True)
    add("decrypt", cmd_decrypt, key=True, output=True)
    add("analyze", cmd_analyze, stats=True).add_argument(
        "--alpha", type=float, default=0.01, choices=[0.01, 0.001])
    add("select-score", cmd_select_score)
    add("sensitivity", cmd_sensitivity, key=True, stats=True)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.needs_key:
            args.key = parse_key_hex(args.key)
        return args.fn(args)
    except (VpaesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
