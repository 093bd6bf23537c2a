"""The benchmark's tracing hooks name functions that exist.

perfbench/tracing.py replaces (module, attribute) pairs with timing
wrappers; an attribute renamed away in the program would crash a traced
benchmark run, so every pair is resolved here.  The module is loaded from
its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = _wraps()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in WRAPS],
                         ids=["%s.%s" % (m, a) for m, a, _, _ in WRAPS])
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_cli_keeps_specialize():
    # cli no longer calls specialize itself, but the verify trace wraps it there
    assert ("pinchflow.cli", "specialize") in {(m, a) for m, a, _, _ in WRAPS}
    import pinchflow.cli
    from pinchflow.frames import specialize
    assert pinchflow.cli.specialize is specialize
