"""The benchmark's tracer still runs against the program's public API.

``perfbench/tracing.py`` wraps every public function of the program's layers
and reads some of their arguments and results, and its stage table keys on
the order of ``run_scenario``'s public calls.  A changed signature or a
renamed traced function shows up here, before a benchmark run.  The tracer
is loaded from its file and run as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import shiftlab.cli  # noqa: F401  (Tracer.install looks up every layer's module)
from shiftlab import scenario_from_json

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# one Hardy prefix slot and one zero-based quotient slot
SCENARIO = {
    "factors": [
        {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}},
        {"kind": {"quotient_roots": [[[0.0, 0.0], 2], [[0.3, 0.0], 1]]},
         "coinvariant": {"ideal_roots": [[[0.0, 0.0], 1]]}},
    ],
    "seed": 1,
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(tracing):
    """One run_scenario through the module attribute the tracer rebinds."""
    scenarios = importlib.import_module("shiftlab.scenarios")
    tracer = tracing.Tracer().install()
    try:
        tracer.scenario = "prefix-quotient"
        report = scenarios.run_scenario(scenario_from_json(SCENARIO))
    finally:
        tracer.uninstall()
    return report, tracer.spans


def test_the_tracer_runs_a_scenario_and_its_stages_sum_to_the_run(tracing):
    report, spans = traced_run(tracing)
    assert report.succeeded and report.mode == "equality"
    names = [s[tracing.NAME] for s in spans]
    assert names.count("scenarios.run_scenario") == 1
    # every slot spectrum is exact, so the shift lemma reads its draws from the
    # slots: no closure runs, shifted or not
    assert "multiplicity.shifted_closure_check" not in names
    assert "multiplicity.krylov_closure" not in names
    table, total = tracing.stage_table(spans)
    assert total > 0
    assert sum(table.values()) == pytest.approx(total, rel=1e-9)
    counts = tracing.counters(spans)
    # mult(S) and mult(F), each on its compressed tuple; the exact factors' cyclic
    # tests read their slot kernels
    assert counts["multiplicity.multiplicity.calls"] == 2
    assert tracing.counters(traced_run(tracing)[1]) == counts
