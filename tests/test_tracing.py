"""The benchmark's tracer patches names on quasistat's modules; every one
of them must resolve, and uninstalling must put the originals back."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve_and_uninstall_restores_them():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()  # raises AttributeError on a name a module dropped
        sites = list(tracer._saved)
        assert sites
        for owner, leaf, original in sites:
            assert getattr(owner, leaf).__wrapped__ is original, (owner, leaf)
    finally:
        tracer.uninstall()
    for owner, leaf, original in sites:
        assert getattr(owner, leaf) is original, (owner, leaf)
    assert tracer._saved == []
