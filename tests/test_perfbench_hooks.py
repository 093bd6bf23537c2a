"""The benchmark's tracing hooks name functions that exist.

perfbench/tracing.py replaces (module, attribute) pairs with timing
wrappers; an attribute renamed away in the program would crash a traced
benchmark run, so every pair is resolved here, and small sweeps run under
the tracer read back the counts its metrics are built from.  The module is
loaded from its file and only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
WRAPS = tracing.WRAPS


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


@pytest.mark.parametrize("argv,dim,artifact", [
    (["--variant", "thm1"], 2, "sweep_thm1_full.json"),
    (["--variant", "thm2"], 3, "sweep_thm2_full.json"),
    (["--variant", "thm1", "--stratum", "hzero", "--beta", "1.0"], 1,
     "sweep_thm1_hzero.json"),
], ids=["thm1", "thm2", "hzero"])
def test_traced_sweep_counts(tmp_path, argv, dim, artifact):
    """A traced sweep visits resolution^dim lattice points, and its base
    phase reports the artifact's feasible samples."""
    from pinchflow.cli import main

    res = 8
    tracer = tracing.Tracer("test")
    tracer.install(WRAPS)
    try:
        rc = main(["sweep"] + argv + ["--resolution", str(res), "--refine-rounds", "0",
                                      "--no-bisect", "--output-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    info = {}
    for span in tracer.spans:
        info.setdefault(span[2], []).append(span[5])
    samples = json.loads((tmp_path / artifact).read_text())["report"]["samples"]
    assert sum(info["pinching.lattice_chunk"]) == res ** dim
    assert info["pinching.base_sweep"] == [samples]


@pytest.mark.parametrize("argv,passes", [
    (["--variant", "thm1", "--stratum", "hzero", "--beta", "1.0"], 32),
    (["--variant", "thm2"], 28),
], ids=["hzero", "thm2"])
def test_traced_critical_search_passes(tmp_path, argv, passes):
    """A bisected sweep runs one lattice pass per scanned constant (21) and
    one per halving of the first bracket (11 for hzero, 7 for thm2); the
    bracket's low end reuses its scan flag instead of a second pass."""
    from pinchflow.cli import main

    tracer = tracing.Tracer("test")
    tracer.install(WRAPS)
    try:
        rc = main(["sweep"] + argv + ["--resolution", "8", "--refine-rounds", "0",
                                      "--output-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert [span[2] for span in tracer.spans].count("pinching.sup_at") == passes
