"""The benchmark's tracer patches names on quasistat's modules; every one
of them must resolve, uninstalling must put the originals back, and every
certificate must pass through a patched name."""

import importlib.util
import pathlib

from quasistat import certify, derive_certificate_via_criterion, logistic_certificate

from conftest import catastrophe_chain

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


def test_tracer_records_the_gamma_of_every_certificate():
    # the benchmark's certify.gamma_log10_min reads the assemble spans: a
    # certificate built past assemble_certificate would leave it at 0
    chain = catastrophe_chain(16)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for make in (
            lambda: certify(chain, range(1, 5), 1),
            lambda: logistic_certificate(1.0, 1.0, 1.0).certificate,
            lambda: derive_certificate_via_criterion(chain, range(1, 5), 1),
        ):
            start = len(tracer.spans)
            cert = make()
            gammas = [s[6]["gamma"] for s in tracer.spans[start:] if s[1] == "assemble"]
            assert [g.hex() for g in gammas] == [cert.gamma.hex()]
    finally:
        tracer.uninstall()
