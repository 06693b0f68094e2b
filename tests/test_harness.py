"""The benchmark's tracer still finds every layer of the package.

``perfbench/tracer.py`` wraps package functions by module and name, and a
name it no longer finds only drops that layer's metrics. This checks every
layer here, in the tier-1 run, and not only in the traced smoke runs of
``python -m pytest perfbench``.
"""

import importlib.util
from pathlib import Path

import vpaes
import vpaes.cli  # noqa: F401  (the tracer looks the cli module up on vpaes)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_every_layer_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(getattr(vpaes, module), attr)
               for module, attr, _ in tracer.TARGETS
               if hasattr(getattr(vpaes, module), attr)]
    before = [getattr(module, attr) for module, attr in targets]
    t = tracer.Tracer()
    t.install(vpaes)
    try:
        assert t.installed == {layer for _, _, layer in tracer.TARGETS}
        assert t.counts_cache_hits
        # cli no longer calls these two; their layers install through
        # imageio's functions of the same names
        assert set(t.missing) <= {"cli.write_container",
                                  "cli.save_cipher_view"}
    finally:
        t.uninstall()
    assert [getattr(module, attr) for module, attr in targets] == before
