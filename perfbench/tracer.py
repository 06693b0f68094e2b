"""In-memory span tracer installed around the calls into each vpaes layer.

Wrappers replace a function on the module object where its caller looks it
up (``cipher.derive_permutation_matrix`` is looked up by
``cipher.encrypt_payload_with_stream``; ``cli.load_image`` by the CLI
commands), so the package under test is not edited. A target that no longer
exists is listed in ``Tracer.missing`` and its metrics are omitted; it never
raises.

The tracer has two modes, set per op, so that allocation tracing never
slows a timed span:

- ``"spans"`` records a span per wrapped call: name, start, end, parent
  (an index into ``Tracer.spans``), op id and counts;
- ``"alloc"`` records no spans; it runs each payload call under tracemalloc
  and keeps the peak.

Self time of a span is its duration minus the part its direct children
cover. A layer's busy time counts only its outermost spans, so a layer that
calls itself (``save_cipher_view`` -> ``save_image``) is not counted twice.
"""

import statistics
import time
import tracemalloc

MiB = 1 << 20

# (module attribute path, layer). Module names are relative to ``vpaes``.
TARGETS = (
    ("cli", "main", "cli"),
    ("cipher", "pi_fraction_bytes", "keystream"),
    ("cipher", "derive_permutation_matrix", "cipher.derive"),
    ("cipher", "encrypt_payload_with_stream", "cipher.encrypt"),
    ("cipher", "decrypt_payload_with_stream", "cipher.decrypt"),
    ("cli", "load_image", "imageio.load"),
    ("imageio", "load_image", "imageio.load"),
    ("cli", "read_container", "imageio.container"),
    ("cli", "write_container", "imageio.container"),
    ("imageio", "read_container", "imageio.container"),
    ("imageio", "write_container", "imageio.container"),
    ("cli", "save_image", "imageio.save"),
    ("cli", "save_cipher_view", "imageio.save"),
    ("imageio", "save_image", "imageio.save"),
    ("randstat", "channel_bits", "randstat.spectral"),
    ("randstat", "spectral_dft_test", "randstat.spectral"),
    ("randstat", "chi_square_tone_test", "randstat.chi_square"),
    ("randstat", "chi_square_statistic", "randstat.chi_square"),
    ("randstat", "sample_adjacent_pairs", "randstat.correlation"),
    ("randstat", "correlation", "randstat.correlation"),
    ("randstat", "tone_histogram", "randstat.histogram"),
    ("randstat", "entropy", "randstat.histogram"),
    ("randstat", "plaintext_selection_score", "randstat.selection_score"),
)

# Layers reported by busy time, by self time, and by tracemalloc peak.
BUSY_LAYERS = ("keystream", "cipher.derive", "imageio.load",
               "imageio.container", "imageio.save", "randstat.spectral",
               "randstat.chi_square", "randstat.correlation",
               "randstat.histogram", "randstat.selection_score")
SELF_LAYERS = ("cipher.encrypt", "cipher.decrypt", "cli")
PEAK_LAYERS = ("cipher.encrypt", "cipher.decrypt")


class Tracer:
    """Records while ``op`` is set, in the way ``mode`` says; does nothing
    otherwise."""

    def __init__(self):
        self.spans = []
        self.peaks = {}
        self.op = None
        self.mode = None
        self.missing = []
        self.installed = set()
        self.counts_cache_hits = False
        self._stack = []
        self._restore = []

    def install(self, package):
        for module_name, attr, layer in TARGETS:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer))
            self._restore.append((module, attr, fn))
            self.installed.add(layer)

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, layer):
        cache_info = getattr(fn, "cache_info", None)
        if layer == "keystream":
            self.counts_cache_hits = cache_info is not None
            if cache_info is None:
                self.missing.append("keystream.cache_info")

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if self.mode == "alloc":
                if layer not in PEAK_LAYERS:
                    return fn(*args, **kwargs)
                return self._alloc_call(fn, layer, args, kwargs)
            return self._span_call(fn, layer, cache_info, args, kwargs)

        return traced

    def _alloc_call(self, fn, layer, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks = self.peaks.setdefault(self.op, {})
            peaks[layer] = max(peaks.get(layer, 0), peak)

    def _span_call(self, fn, layer, cache_info, args, kwargs):
        span = {"name": layer, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        hits = cache_info().hits if cache_info is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()
        if hits is not None:
            span["cache_hits"] = cache_info().hits - hits
        if layer == "keystream":
            span["bytes"] = len(getattr(result, "data", b""))
        elif layer == "cipher.derive":
            span["blocks"] = len(result)
        return result

    def layer_metrics(self, op, mode):
        """Per-layer metrics of op ``op``, traced in ``mode``: from its
        spans, or from its tracemalloc peaks."""
        if mode == "alloc":
            peaks = self.peaks.get(op, {})
            return {f"{layer}.peak_alloc_MiB": peaks.get(layer, 0) / MiB
                    for layer in PEAK_LAYERS if layer in self.installed}
        return layer_metrics(self.spans, op, self.installed,
                             self.counts_cache_hits)


def self_times(spans):
    """Self time per span (index-aligned with ``spans``, whose ``parent``
    fields are indices into the same list)."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _outermost(spans, ids, layer):
    def nested(s):
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == layer:
                return True
            p = spans[p]["parent"]
        return False
    return [spans[i] for i in ids
            if spans[i]["name"] == layer and not nested(spans[i])]


def layer_metrics(spans, op, installed, counts_cache_hits):
    ids = [i for i, s in enumerate(spans) if s["op"] == op]
    selfs = self_times(spans)
    out = {}
    for layer in BUSY_LAYERS:
        if layer in installed:
            out[f"{layer}.busy_s"] = sum(
                s["end"] - s["start"] for s in _outermost(spans, ids, layer))
    for layer in SELF_LAYERS:
        if layer in installed:
            out[f"{layer}.self_s"] = sum(
                selfs[i] for i in ids if spans[i]["name"] == layer)
    if "keystream" in installed:
        ks = _outermost(spans, ids, "keystream")
        out["keystream.calls"] = len(ks)
        out["keystream.bytes_out"] = sum(s["bytes"] for s in ks)
        if counts_cache_hits:
            out["keystream.cache_hits"] = sum(s["cache_hits"] for s in ks)
    if "cipher.derive" in installed:
        out["cipher.derive.blocks"] = sum(
            s["blocks"] for s in _outermost(spans, ids, "cipher.derive"))
    return out


def median_metrics(per_op):
    """Median of each metric over the ops that report it."""
    names = sorted({k for m in per_op for k in m})
    return {k: statistics.median(m[k] for m in per_op if k in m)
            for k in names}
