"""Hand-written reference every benchmarked row is checked against.

``PAPER_N`` is transcribed from Table I of Jeppu et al., "Active
Learning of Abstract System Models from Traces using Model Checking"
(DATE 2022; extended version arXiv 2112.05990), for the 25 rows whose
chart reconstruction is structurally identical to the paper's.  It is
the same table as ``PAPER_N`` in ``benchmarks/test_table1_active.py``
and is deliberately *not* derived from program output.

Every row, listed here or not, must also reach the paper's headline
result: complete (alpha = 1), matching every ground-truth transition
(d = 1), within its budget, without raising.
"""

from __future__ import annotations

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


def row_failures(row: dict) -> list[str]:
    """Why ``row`` misses the reference; empty when it matches.

    A row that raised carries its exception text in ``error`` and has
    no measured columns, so it fails on that alone.
    """
    if row.get("error"):
        return [f"exception: {row['error']}"]
    reasons = []
    if row["timed_out"]:
        reasons.append("timeout")
    if row["alpha"] != 1.0:
        reasons.append(f"alpha={row['alpha']}")
    if row["d"] != 1.0:
        reasons.append(f"d={row['d']}")
    expected = PAPER_N.get((row["benchmark"], row["fsa"]))
    if expected is not None and row["N"] != expected:
        reasons.append(f"N={row['N']}, paper N={expected}")
    return reasons
