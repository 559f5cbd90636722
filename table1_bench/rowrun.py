"""One pass of a workload, in the fresh process ``run.py`` starts for it.

    python3 table1_bench/rowrun.py --workload NAME --seed N --mode MODE

``--mode run`` runs every row of the workload once, one at a time, and
times set-up (importing ``repro``, compiling the charts and
constructing each row's ``ActiveLearner``), Table I's ``T`` and the
whole pass.  Before every row and after the last one it takes a
reading of the machine's speed (``calibrate.py``), outside every timed
interval but the pass's own wall time.  ``--mode traced`` is ``run`` with
the layer wrappers of ``tracing.py`` installed and a telemetry session
open; it also writes its spans to ``--spans``.  ``--mode count`` is
``run`` counting ``holds`` calls, which is too hot to share a pass with
the timed spans.

The last line of standard output is one JSON object with the pass's
measurements and one record per row.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

TELEMETRY_COUNTERS = (
    "oracle.conditions_checked",
    "oracle.solver_checks",
    "oracle.strengthening_rounds",
    "oracle.violations",
    "rewrite.fixpoint_iterations",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "sat.solve_calls",
)


def run_pass(workload: str, seed: int, mode: str, spans_path: str | None) -> dict:
    start = perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro import evaluation
    from repro.automata import compare
    from repro.core import loop, telemetry
    from repro.stateflow import library
    from repro.traces import generate

    import calibrate
    import workloads

    import_s = perf_counter() - start

    recorder = session = None
    if mode in ("traced", "count"):
        import tracing

        recorder = tracing.SpanRecorder()
    if mode == "traced":
        tracing.install(recorder)
        session = telemetry.start("table1_bench", record_spans=False)
    elif mode == "count":
        tracing.install_holds_counter(recorder)

    rows = workloads.expand(workload, seed)
    cal = []
    cal_s = 0.0
    compile_s = construct_s = 0.0
    records = []
    for row_id, (name, fsa, row_seed) in enumerate(rows):
        if recorder is not None:
            recorder.row = row_id
        record = {"benchmark": name, "fsa": fsa, "seed": row_seed, "error": None}
        records.append(record)
        tick = perf_counter()
        cal.append(calibrate.reading())
        cal_s += perf_counter() - tick
        row_start = perf_counter()
        try:
            tick = perf_counter()
            bench = library.get_benchmark(name)
            compile_s += perf_counter() - tick
            spec = bench.fsa(fsa)
            learner = evaluation.default_learner(bench, spec)
            traces = generate.random_traces(
                bench.system,
                count=workloads.INITIAL_TRACES,
                length=workloads.TRACE_LENGTH,
                seed=row_seed,
            )
            tick = perf_counter()
            active = loop.ActiveLearner(
                bench.system,
                learner,
                k=bench.k,
                spurious_engine="explicit",
                budget_seconds=workloads.BUDGET_SECONDS,
                max_iterations=50,
                guide_with_reachable=True,
                jobs=1,
                use_session=True,
                validate=True,
            )
            construct_s += perf_counter() - tick
            with active:
                if session is not None:
                    before = session.metrics.counter("sat.propagations")
                result = active.run(traces)
                if session is not None:
                    record["propagations_in_T"] = (
                        session.metrics.counter("sat.propagations") - before
                    )
            d = compare.transition_match_score(
                result.model, evaluation.fsa_witnesses(bench, spec)
            )
        except Exception as exc:  # a failing row is reported, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            record["wall"] = perf_counter() - row_start
        record.update(
            i=result.iterations,
            N=result.num_states,
            alpha=result.alpha,
            d=d,
            timed_out=result.timed_out,
            T=result.total_seconds,
            learn_s=result.learn_seconds,
            check_s=result.check_seconds,
            final_traces=result.final_trace_count,
        )
    tick = perf_counter()
    cal.append(calibrate.reading())
    cal_s += perf_counter() - tick
    wall_s = perf_counter() - start

    out = {
        "mode": mode,
        "import_s": import_s,
        "compile_s": compile_s,
        "construct_s": construct_s,
        "setup_s": import_s + compile_s + construct_s,
        "T_s": sum(r.get("T", 0.0) for r in records),
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rows": records,
        "cal": cal,
        "cal_s": cal_s,
    }
    if recorder is not None:
        out["counts"] = dict(recorder.counts)
    if session is not None:
        telemetry.stop()
        counters = session.metrics.snapshot()["counters"]
        out["telemetry"] = {k: counters.get(k, 0) for k in TELEMETRY_COUNTERS}
        out["reduced"] = tracing.reduce(recorder.spans)
        out["spans"] = len(recorder.spans)
        if spans_path:
            recorder.write_jsonl(spans_path)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("run", "traced", "count"), default="run"
    )
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    out = run_pass(args.workload, args.seed, args.mode, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
