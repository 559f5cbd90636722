"""Table I, left-hand columns: the active learning algorithm.

One benchmark per Table I row (benchmark × FSA).  Each run regenerates
the row -- ``|X|``, ``k``, ``i``, ``d``, ``N``, ``α``, ``T(s)``, ``%Tm``
-- and the session fixture prints the assembled table at the end.

Expected shape versus the paper (absolute times differ):

* every FSA converges to α = 1 with d = 1 (the paper converges on all
  but its three timeout rows, which were CBMC-runtime artefacts);
* model sizes N land in the paper's 1..8 range for the per-machine FSAs
  and match exactly on the structural benchmarks (vending machine 4,
  cooler 2, sequence detector 5, Moore light 7, ...);
* learning iterations i stay in the paper's 1..16 range.

Run:  pytest benchmarks/test_table1_active.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from conftest import BUDGET, TRACE_LEN, TRACES, table1_rows
from repro.evaluation import run_active
from repro.stateflow.library import get_benchmark

# Paper Table I N values where our chart reconstruction is structurally
# identical (per-machine FSAs); rows not listed are checked for range only.
PAPER_N = {
    ("HomeClimateControlUsingTheTruthtableBlock", "Cooler"): 2,
    ("MealyVendingMachine", "Vend"): 4,
    ("SequenceRecognitionUsingMealyAndMooreChart", "Detect"): 5,
    ("MooreTrafficLight", "Light"): 7,
    ("CountEvents", "Counter"): 3,
    ("MonitorTestPointsInStateflowChart", "Toggle"): 2,
    ("ReuseStatesByUsingAtomicSubcharts", "Power"): 3,
    ("StatesWhenEnabling", "Enabling"): 4,
    ("ViewDifferencesBetweenMessagesEventsAndData", "Consumer"): 4,
    ("Superstep", "WithSuperStep"): 1,
    ("Superstep", "WithoutSuperStep"): 3,
    ("SchedulingSimulinkAlgorithmsUsingStateflow", "Sched"): 3,
    ("TemporalLogicScheduler", "Rate"): 4,
    ("ServerQueueingSystem", "Server"): 3,
    ("UsingSimulinkFunctionsToDesignSwitchingControllers", "Controller"): 4,
    ("LadderLogicScheduler", "Ladder"): 4,
    ("ModelingARedundantSensorPairUsingAtomicSubchart", "Selector"): 4,
    ("ModelingAnIntersectionOfTwo1wayStreetsUsingStateflow", "InRed"): 8,
    ("ModelingACdPlayerradioUsingEnumeratedDataType", "ModeManager"): 4,
    ("ModelingACdPlayerradioUsingEnumeratedDataType", "InOn"): 5,
    ("ModelingACdPlayerradioUsingEnumeratedDataType", "ModeManager Overall"): 2,
    ("ModelingASecuritySystem", "InAlarm InOn"): 4,
    ("ModelingASecuritySystem", "InDoor"): 3,
    ("ModelingASecuritySystem", "InWin"): 3,
    ("ModelingALaunchAbortSystem", "ModeLogic"): 5,
}


@pytest.mark.parametrize("name,fsa", table1_rows())
def test_table1_row(benchmark, table1_report, name, fsa):
    bench = get_benchmark(name)
    spec = bench.fsa(fsa)

    def run():
        return run_active(
            bench,
            spec,
            initial_traces=TRACES,
            trace_length=TRACE_LEN,
            budget_seconds=BUDGET,
        )

    out = benchmark.pedantic(run, iterations=1, rounds=1)
    table1_report[0].append(out.row)

    # Shape assertions (paper-level claims, not absolute numbers).
    assert out.row.alpha == 1.0, f"{name}/{fsa}: α={out.row.alpha}"
    assert out.d == 1.0, f"{name}/{fsa}: d={out.d}"
    assert 1 <= out.row.iterations <= 50
    expected_n = PAPER_N.get((name, fsa))
    if expected_n is not None:
        assert out.row.num_states == expected_n, (
            f"{name}/{fsa}: N={out.row.num_states}, paper N={expected_n}"
        )
