"""The benchmark tracer patches names the package must keep providing."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from bench.tracing import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls_against_the_package():
    tracer = Tracer()
    tracer.install()   # raises AttributeError if a traced name is gone
    patched = list(tracer._patches)
    assert patched and all(getattr(m, a) is not o for m, a, o in patched)
    tracer.uninstall()
    assert all(getattr(m, a) is o for m, a, o in patched)
