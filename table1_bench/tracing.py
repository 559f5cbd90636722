"""Layer spans for the traced run, recorded from outside the program.

``install`` wraps the public functions that bound each layer.  Every
call becomes a span ``[layer, start, end, parent, row]`` kept in memory
(``row`` is the workload row being run, ``parent`` the index of the
enclosing span or -1), and ``reduce`` turns the spans into per-layer
inclusive and self times.  The hot ``holds`` evaluator is counted, not
timed, and in a pass of its own (``install_holds_counter``).

Nothing here runs unless the benchmark is asked for a traced run; the
end-to-end figures always come from untraced processes.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class SpanRecorder:
    """In-memory span stack plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.row = -1
        self._stack: list[int] = []

    def timed(self, layer, fn, after=None):
        """``fn`` wrapped to record one ``layer`` span per call.

        ``after(span, args, result)`` runs once the call returns; it may
        count things or rename the span.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.row]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """``fn`` wrapped to bump ``counts[name]`` per call, untimed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, row) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "row": row,
                        }
                    )
                    + "\n"
                )


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary of the default Table I path.

    Names are patched where the caller looks them up: ``core.loop``
    imports ``start_session``, ``extract_conditions`` and friends by
    name, so those are replaced in ``core.loop``'s namespace; modules
    imported lazily inside a function are patched at their source.
    """
    from repro import evaluation
    from repro.analysis import sortcheck, system_check
    from repro.automata import compare
    from repro.core import loop, oracle
    from repro.learn import t2m
    from repro.mc import condition_check, explicit, spurious
    from repro.sat import solver as sat_solver
    from repro.smt import solver as smt_solver
    from repro.stateflow import library
    from repro.traces import generate

    counts = recorder.counts

    def relearned(span, args, model):
        span[0] = "learn.warm" if args[0].warm else "learn.cold"

    def extracted(span, args, conditions):
        counts["conditions.count"] += len(conditions)

    def refined(span, args, augmented):
        counts["refine.traces_added"] += augmented.num_added
        counts["refine.duplicates"] += augmented.duplicates_skipped

    timed = [
        (library, "get_benchmark", "stateflow.compile", None),
        (loop.ActiveLearner, "__init__", "loop.setup", None),
        (loop, "shared_reachability", "mc.reach", None),
        (loop, "reachable_formula", "mc.reach", None),
        (explicit, "shared_reachability", "mc.reach", None),
        (explicit.ExplicitReachability, "explore", "mc.reach", None),
        (system_check, "validate_system", "analysis.validate", None),
        (sortcheck.SortChecker, "check", "analysis.validate", None),
        (generate, "random_traces", "traces.generate", None),
        (evaluation, "fsa_witnesses", "score", None),
        (compare, "transition_match_score", "score", None),
        (loop.ActiveLearner, "run", "loop.run", None),
        (loop, "start_session", "learn.cold", None),
        (t2m.T2MSession, "add_traces", "learn.warm", relearned),
        (loop, "extract_conditions", "conditions.extract", extracted),
        (oracle.CompletenessOracle, "check_all", "oracle.check", None),
        (oracle, "strengthened_assumption", "oracle.strengthen", None),
        (condition_check.IncrementalConditionChecker, "check", "mc.query", None),
        (spurious.ExplicitSpuriousness, "classify", "mc.classify", None),
        (smt_solver.SmtSolver, "add", "smt.add", None),
        (sat_solver.Solver, "solve", "sat.solve", None),
        (loop, "augment_traces", "refine", refined),
    ]
    for owner, attr, layer, after in timed:
        setattr(owner, attr, recorder.timed(layer, getattr(owner, attr), after))


def install_holds_counter(recorder: SpanRecorder) -> None:
    """Count ``holds`` calls from refinement and guard synthesis.

    Tens of millions of calls per pass make even a counting wrapper
    cost more than half of ``T``, so the count is taken in a pass of
    its own and never mixed into the timed spans.
    """
    from repro.core import refine
    from repro.learn import predicates

    for owner in (refine, predicates):
        owner.holds = recorder.counted("expr.holds_calls", owner.holds)


def reduce(spans: list[list]) -> dict:
    """Per-layer ``{"total": s, "self": s, "calls": n}``, plus the time
    of each layer inside ``loop.run``, the interval Table I's ``T``
    measures.

    A layer's total counts only its outermost spans, so a layer that
    re-enters itself (``reachable_formula`` calling ``explore``) is not
    counted twice.  A span's self time is its duration minus its
    children's.  Over the spans inside ``loop.run``, ``"T_self"`` sums
    self time per layer (its values add up to ``T`` by construction) and
    ``"in_T"`` sums the outermost spans' time per layer, which can be
    compared with the loop's own learn and check timings.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _row in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, dict] = {}
    in_T: dict[str, float] = {}
    T_self: dict[str, float] = {}
    in_run = [False] * len(spans)
    for index, (name, start, end, parent, _row) in enumerate(spans):
        entry = layers.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        outermost = ancestor < 0
        if outermost:
            entry["total"] += end - start
        in_run[index] = name == "loop.run" or (parent >= 0 and in_run[parent])
        if in_run[index]:
            T_self[name] = T_self.get(name, 0.0) + (end - start) - child_time[index]
            if outermost:
                in_T[name] = in_T.get(name, 0.0) + end - start
    return {"layers": layers, "T_self": T_self, "in_T": in_T}
