"""The benchmark's tracer still finds every package entry point it wraps."""
import importlib.util
from pathlib import Path


def test_tracer_resolves_every_entry_point():
    # a renamed entry point would silently drop its per-layer metrics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        # every place a caller looks an entry point up is wrapped, too
        places = sum(len(where) for where, _ in tracing.ENTRY_POINTS.values())
        assert len(tracer._installed) == places
    finally:
        tracer.uninstall()
