"""Table I benchmark: run one workload and print its metrics.

    python3 table1_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of the workload runs in a
fresh process (``rowrun.py``), one row at a time (a closed loop with one
client).  With ``--trace 0`` the run repeats rounds of passes over the
same inputs, one pass per hash seed in ``HASH_SEEDS``, while another
round fits in ``--seconds``, and reports each end-to-end metric as a
median over the passes, with times scaled to the reference speed of
``calibrate.py`` (see ``end_to_end``).  With ``--trace 1`` it runs one
untraced pass, one pass with the layer wrappers of ``tracing.py`` on,
and one pass counting ``holds`` calls, all under the same hash seed,
and reports the per-layer metrics plus the tracing overhead.  Every row
of every pass is checked against ``reference.py``.

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment stamp and the same figures for a reader.  A full
record of the run goes to ``table1_bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

#: One round of passes runs once under each of these ``PYTHONHASHSEED``
#: values.  String hashing orders the program's sets and dicts, and the
#: order changes how long a pass takes by up to a third, so every run
#: measures the same hash seeds.
HASH_SEEDS = (0, 1, 2, 3, 4)
#: The whole run ends within this many seconds or fails.
TIME_LIMIT = 170.0
#: In a traced run, the wrapped learn and check layers inside
#: ``loop.run`` must match the loop's own learn and check timings within
#: this share ...
AGREEMENT_TOLERANCE = 0.02
#: ... and the wrapped layers must account for at least this share of
#: ``T_s``; the rest is ``loop.run``'s own time.
ATTRIBUTED_FLOOR = 0.90
#: The layers ``loop.run`` calls directly; their time inside ``loop.run``
#: is the part of ``T`` the traced run attributes to a layer.
ATTRIBUTED = ("learn.cold", "learn.warm", "conditions.extract", "oracle.check", "refine")


class BenchError(RuntimeError):
    """A pass could not be run; the benchmark reports no result."""


def run_pass(
    workload: str,
    seed: int,
    mode: str,
    deadline: float,
    spans: str | None = None,
    hash_seed: int | None = None,
) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "rowrun.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if spans is not None:
        command += ["--spans", spans]
    env = None
    if hash_seed is not None:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for a {mode} pass")
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass overran the {TIME_LIMIT:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def row_outcomes(passes: list[dict]) -> tuple[int, int, list[str], bool]:
    """Rows attempted and failed over all passes, the failure messages,
    and whether every pass produced the same ``i``/``N``/trace counts."""
    attempted = failed = 0
    messages = []
    for p in passes:
        for row in p["rows"]:
            attempted += 1
            reasons = reference.row_failures(row)
            if reasons:
                failed += 1
                messages.append(
                    f"{row['benchmark']} / {row['fsa']} seed {row['seed']}"
                    f" ({p['mode']}): {'; '.join(reasons)}"
                )
    shapes = {
        tuple((r.get("i"), r.get("N"), r.get("final_traces")) for r in p["rows"])
        for p in passes
    }
    return attempted, failed, messages, len(shapes) == 1


def _row_scale(p: dict, i: int) -> float:
    """Scale to reference speed for row ``i`` of pass ``p``."""
    return 2 * calibrate.REFERENCE / (p["cal"][i] + p["cal"][i + 1])


def _pass_scale(p: dict) -> float:
    """Scale to reference speed for pass ``p`` as a whole."""
    return calibrate.REFERENCE / statistics.median(p["cal"])


def scaled_T(p: dict) -> float:
    """The ``T_s`` of one pass at reference speed."""
    return sum(r.get("T", 0.0) * _row_scale(p, i) for i, r in enumerate(p["rows"]))


def end_to_end(passes: list[dict], scaled: bool = True) -> dict:
    """End-to-end metrics ``{name: (value, unit)}``.

    Every pass runs the same rows on the same inputs, so ``T_s`` sums
    each row's median ``T`` over the passes, and ``wall_s`` does the
    same for each row's wall time plus the median per-pass remainder
    (interpreter start and imports, without the calibration readings).
    ``setup_s`` and ``peak_rss_mib`` are medians over the passes.

    With ``scaled``, times are scaled to the reference speed of
    ``calibrate.py``: a row's times by ``REFERENCE`` over the mean of the
    readings taken just before and just after it, and a pass's set-up
    and remainder by ``REFERENCE`` over the pass's median reading.  The
    machine's speed then cancels out of the figures while the program's
    does not.
    """
    median = statistics.median
    row_scale = _row_scale if scaled else lambda p, i: 1.0
    pass_scale = _pass_scale if scaled else lambda p: 1.0

    def row_sum(key):
        return sum(
            median(p["rows"][i].get(key, 0.0) * row_scale(p, i) for p in passes)
            for i in range(len(passes[0]["rows"]))
        )

    remainder = median(
        (p["wall_s"] - p["cal_s"] - sum(r["wall"] for r in p["rows"])) * pass_scale(p)
        for p in passes
    )
    return {
        "setup_s": (median(p["setup_s"] * pass_scale(p) for p in passes), "s"),
        "T_s": (row_sum("T"), "s"),
        "wall_s": (remainder + row_sum("wall"), "s"),
        "peak_rss_mib": (median(p["peak_rss_mib"] for p in passes), "MiB"),
    }


def per_layer(traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` of a traced pass, and
    its self-time table."""
    layers = traced["reduced"]["layers"]
    inside = traced["reduced"]["T_self"]
    in_T = traced["reduced"]["in_T"]
    tel = traced["telemetry"]
    counts = traced["counts"]
    rows = [r for r in traced["rows"] if not r["error"]]
    T = traced["T_s"]

    def total(name):
        return layers.get(name, {}).get("total", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    added = counts.get("refine.traces_added", 0)
    metrics = {
        "stateflow.compile_s": (total("stateflow.compile"), "s"),
        "loop.setup_s": (total("loop.setup"), "s"),
        "mc.reach_s": (total("mc.reach"), "s"),
        "analysis.validate_s": (total("analysis.validate"), "s"),
        "traces.generate_s": (total("traces.generate"), "s"),
        "score.s": (total("score"), "s"),
        "learn.s": (total("learn.cold") + total("learn.warm"), "s"),
        "learn.cold_s": (total("learn.cold"), "s"),
        "learn.warm_s": (total("learn.warm"), "s"),
        "learn.calls": (calls("learn.cold") + calls("learn.warm"), "count"),
        "learn.states": (sum(r["N"] for r in rows), "count"),
        "learn.share_pct": (
            100.0 * ratio(sum(r["learn_s"] for r in rows), T),
            "%",
        ),
        "conditions.extract_s": (total("conditions.extract"), "s"),
        "conditions.count": (counts.get("conditions.count", 0), "count"),
        "oracle.check_s": (total("oracle.check"), "s"),
        "oracle.conditions": (tel["oracle.conditions_checked"], "count"),
        "oracle.strengthening_rounds": (tel["oracle.strengthening_rounds"], "count"),
        "oracle.solver_checks": (tel["oracle.solver_checks"], "count"),
        "oracle.violations": (tel["oracle.violations"], "count"),
        "mc.query_s": (total("mc.query"), "s"),
        "mc.classify_s": (total("mc.classify"), "s"),
        "smt.add_s": (total("smt.add"), "s"),
        "sat.solve_s": (total("sat.solve"), "s"),
        "sat.solves": (tel["sat.solve_calls"], "count"),
        "sat.propagations": (tel["sat.propagations"], "count"),
        "sat.propagations_in_T": (sum(r["propagations_in_T"] for r in rows), "count"),
        "sat.conflicts": (tel["sat.conflicts"], "count"),
        "sat.decisions": (tel["sat.decisions"], "count"),
        "sat.propagations_per_solve": (
            ratio(tel["sat.propagations"], tel["sat.solve_calls"]),
            "count",
        ),
        "rewrite.fixpoint_iterations": (tel["rewrite.fixpoint_iterations"], "count"),
        "refine.s": (total("refine"), "s"),
        "refine.traces_added": (added, "count"),
        "refine.added_share": (
            ratio(added, added + counts.get("refine.duplicates", 0)),
            "ratio",
        ),
        "traces.final_count": (sum(r["final_traces"] for r in rows), "count"),
        "loop.iterations": (sum(r["i"] for r in rows), "count"),
        "loop.self_s": (inside.get("loop.run", 0.0), "s"),
        "trace.attributed_pct": (
            100.0 * ratio(sum(in_T.get(n, 0.0) for n in ATTRIBUTED), T),
            "%",
        ),
    }
    table = {
        name: {
            "self_s": layers[name]["self"],
            "total_s": layers[name]["total"],
            "calls": layers[name]["calls"],
            "in_T_s": in_T.get(name, 0.0),
            "self_in_T_s": inside.get(name, 0.0),
            "share_of_T_pct": 100.0 * ratio(inside.get(name, 0.0), T),
        }
        for name in sorted(layers, key=lambda n: -layers[n]["self"])
    }
    return metrics, table


def coverage(traced: dict) -> tuple[list[tuple[str, float, float]], bool]:
    """Check that the wrappers saw the whole of ``T``.

    Compares the wrapped learn and check layers' time inside
    ``loop.run`` with the loop's own ``learn_seconds`` and
    ``check_seconds`` (a lost wrapper reads 0, a doubled one twice the
    time), and the attributed share of ``T_s`` with
    ``ATTRIBUTED_FLOOR``.  Returns ``(what, wrapped, loop's own)``
    triples and whether every comparison holds.
    """
    in_T = traced["reduced"]["in_T"]
    rows = [r for r in traced["rows"] if not r["error"]]
    pairs = [
        (
            "learn",
            in_T.get("learn.cold", 0.0) + in_T.get("learn.warm", 0.0),
            sum(r["learn_s"] for r in rows),
        ),
        (
            "check",
            in_T.get("conditions.extract", 0.0) + in_T.get("oracle.check", 0.0),
            sum(r["check_s"] for r in rows),
        ),
    ]
    ok = all(abs(wrapped - own) <= AGREEMENT_TOLERANCE * own for _, wrapped, own in pairs)
    attributed = sum(in_T.get(n, 0.0) for n in ATTRIBUTED)
    ok &= attributed >= ATTRIBUTED_FLOOR * traced["T_s"]
    return pairs + [("attributed", attributed, traced["T_s"])], ok


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, traced: bool) -> dict:
    row_seeds: dict[str, list[int]] = {}
    for benchmark, fsa, row_seed in workloads.expand(workload, seed):
        row_seeds.setdefault(f"{benchmark}/{fsa}", []).append(row_seed)
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "row_seeds": row_seeds,
        "traced": traced,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    env = environment(args.workload, args.seed, bool(args.trace))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    record = {"env": env}
    try:
        if args.trace:
            hash_seed = HASH_SEEDS[0]
            base = run_pass(args.workload, args.seed, "run", deadline, hash_seed=hash_seed)
            traced = run_pass(
                args.workload,
                args.seed,
                "traced",
                deadline,
                spans=stem + ".spans.jsonl",
                hash_seed=hash_seed,
            )
            counted = run_pass(args.workload, args.seed, "count", deadline, hash_seed=hash_seed)
            passes = [base, traced, counted]
            metrics, table = per_layer(traced)
            metrics["expr.holds_calls"] = (counted["counts"]["expr.holds_calls"], "count")
            metrics["trace.overhead_s"] = (scaled_T(traced) - scaled_T(base), "s")
            checks, covered = coverage(traced)
            record["layers"] = table
            record["coverage"] = {"checks": checks, "holds": covered}
        else:
            start = time.monotonic()
            passes = []
            while True:
                tick = time.monotonic()
                for hash_seed in HASH_SEEDS:
                    passes.append(
                        run_pass(args.workload, args.seed, "run", deadline, hash_seed=hash_seed)
                    )
                last = time.monotonic() - tick
                if time.monotonic() - start + last > args.seconds:
                    break
            metrics = end_to_end(passes)
            record["unscaled"] = end_to_end(passes, scaled=False)
            covered = True
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages, agree = row_outcomes(passes)
    env["passes"] = len(passes)
    correct = failed == 0 and agree and covered
    record.update(
        passes=[{k: v for k, v in p.items() if k != "reduced"} for p in passes],
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        failures=messages,
        passes_agree=agree,
    )
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    print("# env " + json.dumps(env))
    for message in messages:
        print(f"# FAILED {message}")
    if not agree:
        print("# FAILED passes over the same inputs disagree on i/N/trace counts")
    if args.trace:
        T = traced["T_s"]
        print(f"# traced run: T_s {T:.3f} s (untraced {base['T_s']:.3f} s, unscaled)")
        print(
            f"# {'layer':<20} {'self in T':>10} {'share':>7} {'in T':>9}"
            f" {'total':>9} {'calls':>8}"
        )
        for name, row in table.items():
            print(
                f"# {name:<20} {row['self_in_T_s']:>10.3f} {row['share_of_T_pct']:>6.1f}%"
                f" {row['in_T_s']:>9.3f} {row['total_s']:>9.3f} {row['calls']:>8}"
            )
        for what, wrapped, own in checks:
            print(f"# coverage: {what} wrapped {wrapped:.4f} s against {own:.4f} s")
        print(
            f"# coverage {'holds' if covered else 'FAILED'}: learn and check within"
            f" {100 * AGREEMENT_TOLERANCE:.0f}% of the loop's own timings,"
            f" wrapped layers at least {100 * ATTRIBUTED_FLOOR:.0f}% of T_s"
        )
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, (value, unit) in record.get("unscaled", {}).items():
        print(f"# unscaled {name} = {value:.6g} {unit}")
    print(f"# rows_failed = {failed} of {attempted} rows attempted")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
