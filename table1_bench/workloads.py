"""Workload definitions: which Table I rows run, at which seeds.

A workload is a list of entries ``(benchmark, fsa, repeats)``.  An entry
with ``repeats = n`` runs its row at the ``n`` consecutive row seeds
``seed * n .. seed * n + n - 1`` of the workload seed, so two workload
seeds never share a row seed and the same workload seed always yields
the same inputs.

Every row runs with the paper's configuration: 50 initial traces of 50
steps, the default ``explicit`` spuriousness engine with reachable-state
guidance, learner sessions on, the serial oracle (``jobs=1``) and a
60 s budget.  Only rows whose iteration count ``i`` does not change
with the seed are used; README.md records why, and why each workload
was chosen.
"""

from __future__ import annotations

WORKLOADS: dict[str, list[tuple[str, str, int]]] = {
    "learn-bound": [
        ("HomeClimateControlUsingTheTruthtableBlock", "Cooler", 24),
        ("FrameSyncController", "Sync", 6),
    ],
    "oracle-bound": [
        ("ModelingAnIntersectionOfTwo1wayStreetsUsingStateflow", "InRed", 25),
        ("ModelingALaunchAbortSystem", "ModeLogic", 8),
    ],
}

INITIAL_TRACES = 50
TRACE_LENGTH = 50
BUDGET_SECONDS = 60.0


def expand(workload: str, seed: int) -> list[tuple[str, str, int]]:
    """The ``(benchmark, fsa, row_seed)`` rows of one workload run."""
    return [
        (benchmark, fsa, row_seed)
        for benchmark, fsa, repeats in WORKLOADS[workload]
        for row_seed in range(seed * repeats, seed * repeats + repeats)
    ]
