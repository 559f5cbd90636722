"""Parallel completeness oracle: sharded condition checking.

The completeness conditions of one candidate model are mutually
independent (each is its own Fig. 3a harness), which makes
:meth:`CompletenessOracle.check_all` embarrassingly parallel -- and it is
the dominant wall-clock cost of the active-learning loop now that each
individual query is incremental.  This module shards ``check_all`` across
persistent worker processes while keeping the report *bit-for-bit
identical* to the serial one.

Design
------

**Spawn-safe construction.**  A live oracle is not picklable (it owns a
CDCL solver mid-flight), so workers are handed an :class:`OracleSpec`: a
plain-data recipe -- system fields, spurious-engine *name*, ``k``,
strengthening knobs, optional domain assumption -- from which each worker
rebuilds its own :class:`~repro.core.oracle.CompletenessOracle`, with its
own persistent :class:`~repro.mc.condition_check.IncrementalConditionChecker`.
This works under any multiprocessing start method; the default is
``"spawn"``.  Because the spuriousness strategy travels by *name*, the
proof engines ride along for free: a worker given ``"ic3"`` rebuilds its
own :class:`~repro.mc.ic3.Ic3Engine` whose frames then strengthen
monotonically across every condition routed to that worker (sticky
affinity keeps those proofs hot, exactly like the learned clauses).

**Sticky affinity.**  Workers live for the oracle's lifetime, so their
solvers accumulate learned clauses exactly like the serial checker does.
To keep those clause databases hot, conditions are routed with two-level
sticky affinity: a condition seen in an earlier ``check_all`` call goes
back to the worker that checked it before; a *new* condition prefers the
worker already owning conditions over the same observable symbols
(their encodings share literals, so lemmas transfer), unless that worker
is already at its fair share of the current batch, in which case the
least-loaded worker takes it.

**Determinism.**  The oracle uses canonical (lexicographically minimal)
counterexamples, making every outcome a pure function of its condition:
the CDCL model a worker would otherwise return depends on its solver's
history: clause database, saved phases and encoder variable order.
With canonical outcomes the merged report -- outcomes listed in the
original condition order -- is identical to the serial report regardless
of ``jobs`` or scheduling.

**Deadlines.**  The ``deadline`` (``time.monotonic`` scale, which is a
system-wide clock on the supported platforms) is forwarded to every
worker, which honours it exactly like the serial path: between
conditions and between spurious-strengthening rounds.  The merge keeps
the longest prefix (in original order) of contiguously checked
conditions, so a truncated parallel report has the same shape as a
truncated serial one and never claims conditions it did not check.

**Worker failure.**  Results are streamed per condition.  If a worker
dies mid-batch (its pipe hits EOF or its sentinel fires before ``done``),
the unfinished conditions are re-checked serially in the parent and a
``RuntimeWarning`` is emitted -- a crash can slow a report down but never
silently shorten it.  Dead workers are respawned on the next dispatch.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from ..expr.ast import Expr, free_vars
from ..mc.spurious import (
    SPURIOUS_ENGINES,
    build_spurious_checker,
    unknown_engine_message,
)
from ..system.transition_system import SymbolicSystem
from ..system.valuation import Valuation
from . import telemetry
from .conditions import Condition
from .oracle import CompletenessOracle, ConditionOutcome, OracleReport
from .pool import ItemRunner, PersistentWorkerPool, PoolWorker


# Sticky-affinity tables are bounded (oldest-first eviction) so a pool
# that lives across many loop iterations cannot leak dead conditions.
_AFFINITY_CAP = 10_000


# ---------------------------------------------------------------------------
# picklable specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """Reconstruction recipe for a :class:`SymbolicSystem`.

    The system dataclass itself would pickle, but live instances carry
    process-local caches (notably the shared reachability engine, whose
    table can hold hundreds of thousands of states) that must not ride
    along.  The spec captures exactly the declared fields.
    """

    name: str
    state_vars: tuple
    input_vars: tuple
    init_state: Valuation
    next_exprs: tuple[tuple[object, Expr], ...]
    input_samples: tuple[Valuation, ...]

    @classmethod
    def of(cls, system: SymbolicSystem) -> "SystemSpec":
        return cls(
            name=system.name,
            state_vars=system.state_vars,
            input_vars=system.input_vars,
            init_state=system.init_state,
            next_exprs=tuple(
                sorted(system.next_exprs.items(), key=lambda kv: kv[0].name)
            ),
            input_samples=tuple(system.input_samples),
        )

    def build(self) -> SymbolicSystem:
        return SymbolicSystem(
            name=self.name,
            state_vars=self.state_vars,
            input_vars=self.input_vars,
            init_state=self.init_state,
            next_exprs=dict(self.next_exprs),
            input_samples=list(self.input_samples),
        )


@dataclass(frozen=True)
class OracleSpec:
    """Everything a worker needs to rebuild a serial oracle."""

    system: SystemSpec
    spurious_engine: str
    k: int
    respect_k: bool = True
    state_only: bool = True
    max_strengthenings: int = 100
    domain_assumption: Expr | None = None
    #: Rebuilt oracles validate their system and every condition through
    #: the static analyzer.  Because workers rebuild from this spec, a
    #: validating parent hands out validating workers -- the future job
    #: server's untrusted-spec front door inherits the check for free.
    validate: bool = False
    #: Captured at construction from the parent's telemetry state:
    #: workers of a telemetry-enabled parent run metrics-only sessions
    #: and attach per-batch snapshot deltas to their batch replies.
    telemetry: bool = False
    # Test-only crash injection: (worker_index, outcomes_before_exit).
    fault: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.spurious_engine not in SPURIOUS_ENGINES:
            raise ValueError(unknown_engine_message(self.spurious_engine))

    def build_oracle(self, system: SymbolicSystem | None = None) -> CompletenessOracle:
        if system is None:
            system = self.system.build()
        return CompletenessOracle(
            system,
            build_spurious_checker(
                system,
                self.spurious_engine,
                respect_k=self.respect_k,
                state_only=self.state_only,
            ),
            self.k,
            state_only=self.state_only,
            max_strengthenings=self.max_strengthenings,
            domain_assumption=self.domain_assumption,
            canonical_counterexamples=True,
            validate=self.validate,
        )

    def make_runner(self, worker_index: int) -> ItemRunner:
        """Per-item runner for :class:`~repro.core.pool.PersistentWorkerPool`.

        Rebuilds a serial oracle in the worker; each item is a
        :class:`Condition`, each result a :class:`ConditionOutcome`.  A
        truncated outcome (expired deadline mid-strengthening) stops the
        batch, matching the serial ``check_all`` shape.
        """
        oracle = self.build_oracle()

        def run(condition: Condition, deadline: float | None):
            outcome = oracle.check(condition, deadline=deadline)
            return outcome, outcome.truncated

        return run


# ---------------------------------------------------------------------------
# the parallel oracle
# ---------------------------------------------------------------------------


class ParallelCompletenessOracle:
    """Drop-in ``check_all`` that shards conditions across processes.

    Construction mirrors :class:`CompletenessOracle` except that the
    spuriousness strategy is named (``spurious_engine``) rather than
    passed as a live object, so it can travel to workers as part of the
    picklable :class:`OracleSpec`.  With ``jobs=1`` no processes are
    created and every call runs on an in-process serial oracle.

    The oracle is a context manager; :meth:`close` shuts the workers
    down.  Workers are daemonic, so a forgotten ``close`` can never hang
    interpreter exit.
    """

    def __init__(
        self,
        system: SymbolicSystem,
        spurious_engine: str,
        k: int,
        *,
        jobs: int = 2,
        respect_k: bool = True,
        state_only: bool = True,
        max_strengthenings: int = 100,
        domain_assumption: Expr | None = None,
        start_method: str = "spawn",
        validate: bool = False,
        _fault: tuple[int, int] | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._system = system
        self._jobs = jobs
        self._spec = OracleSpec(
            system=SystemSpec.of(system),
            spurious_engine=spurious_engine,
            k=k,
            respect_k=respect_k,
            state_only=state_only,
            max_strengthenings=max_strengthenings,
            domain_assumption=domain_assumption,
            validate=validate,
            telemetry=telemetry.enabled(),
            fault=_fault,
        )
        if validate:
            # Fail fast in the parent too: a bad system should surface
            # at construction, not as an AnalysisError inside a worker.
            from ..analysis.system_check import validate_system

            validate_system(system)
        # The generic pool owns process lifecycle, the wire protocol,
        # stale-reply filtering and crash detection; this class owns the
        # oracle-specific parts (affinity sharding, serial fallback,
        # report merge).
        self._pool = PersistentWorkerPool(
            self._spec,
            jobs,
            start_method=start_method,
            name=f"oracle-worker-{system.name}",
        )
        # Two-level sticky affinity (see module docstring).
        self._condition_affinity: dict[Condition, int] = {}
        self._symbol_affinity: dict[tuple[str, ...], int] = {}
        self._serial: CompletenessOracle | None = None
        self.worker_failures = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def _closed(self) -> bool:
        return self._pool.closed

    @property
    def _workers(self) -> list[PoolWorker | None]:
        return self._pool._workers

    @property
    def _generation(self) -> int:
        return self._pool._generation

    def close(self) -> None:
        """Shut down all worker processes."""
        self._pool.close()

    def _ensure_worker(self, slot: int) -> PoolWorker:
        return self._pool.ensure_worker(slot)

    def __enter__(self) -> "ParallelCompletenessOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; daemon workers die anyway
        try:
            self.close()
        except Exception:
            pass

    # -- serial pieces -------------------------------------------------
    def _serial_oracle(self) -> CompletenessOracle:
        """In-process oracle used for ``jobs=1``, tiny batches, single
        checks and worker-failure fallback.

        Canonical counterexamples make its outcomes identical to any
        worker's, so mixing the two paths cannot perturb a report.
        """
        if self._serial is None:
            self._serial = self._spec.build_oracle(system=self._system)
        return self._serial

    def check(
        self, condition: Condition, deadline: float | None = None
    ) -> ConditionOutcome:
        if self._closed:
            raise RuntimeError("oracle is closed")
        return self._serial_oracle().check(condition, deadline=deadline)

    @property
    def spurious_checker(self):
        """The in-process fallback oracle's checker, if one was built.

        Worker processes own their own checkers (and IC3 frames); those
        are not reachable from the parent, so invariant reporting under
        ``jobs > 1`` only reflects the serial fallback path.
        """
        if self._serial is None:
            return None
        return self._serial.spurious_checker

    # -- sharding ------------------------------------------------------
    @staticmethod
    def _symbols(condition: Condition) -> tuple[str, ...]:
        names = {v.name for v in free_vars(condition.conclusion)}
        if condition.assumption is not None:
            names |= {v.name for v in free_vars(condition.assumption)}
        return tuple(sorted(names))

    def _assign(
        self, conditions: list[Condition]
    ) -> list[list[tuple[int, Condition]]]:
        """Shard with sticky affinity, capped for balance.

        Repeat conditions always return to their previous worker (their
        exact encodings, and any lemmas over them, live there).  New
        conditions prefer the worker owning their symbol group but fall
        back to the least-loaded worker once that one reached its fair
        share of this batch, so a single hot symbol group cannot
        serialise the whole check.
        """
        jobs = self._jobs
        fair_share = -(-len(conditions) // jobs)  # ceil
        loads = [0] * jobs
        batches: list[list[tuple[int, Condition]]] = [[] for _ in range(jobs)]
        for index, condition in enumerate(conditions):
            worker = self._condition_affinity.get(condition)
            if worker is None:
                symbols = self._symbols(condition)
                preferred = self._symbol_affinity.get(symbols)
                if preferred is not None and loads[preferred] < fair_share:
                    worker = preferred
                else:
                    worker = min(range(jobs), key=lambda j: (loads[j], j))
                self._condition_affinity[condition] = worker
                self._symbol_affinity.setdefault(symbols, worker)
            loads[worker] += 1
            batches[worker].append((index, condition))
        # Affinity is an optimisation, not a correctness requirement:
        # candidate models change every iteration and their dead
        # conditions would otherwise accumulate forever.  Evict oldest
        # entries (insertion order) once well past any live working set.
        while len(self._condition_affinity) > _AFFINITY_CAP:
            self._condition_affinity.pop(
                next(iter(self._condition_affinity))
            )
        while len(self._symbol_affinity) > _AFFINITY_CAP:
            self._symbol_affinity.pop(next(iter(self._symbol_affinity)))
        return batches

    # -- the sharded check_all -----------------------------------------
    def check_all(
        self, conditions: list[Condition], deadline: float | None = None
    ) -> OracleReport:
        """Serial-identical report, computed on the worker pool.

        See :meth:`CompletenessOracle.check_all` for the report
        semantics; this method only changes *where* conditions run.
        """
        if self._closed:
            raise RuntimeError("oracle is closed")
        if self._jobs == 1 or len(conditions) < 2:
            return self._serial_oracle().check_all(conditions, deadline=deadline)
        with telemetry.span(
            "oracle.check_all", jobs=self._jobs, conditions=len(conditions)
        ):
            return self._check_all_pooled(conditions, deadline)

    def _check_all_pooled(
        self, conditions: list[Condition], deadline: float | None
    ) -> OracleReport:
        run = self._pool.run_batches(self._assign(conditions), deadline)
        outcomes: dict[int, ConditionOutcome] = run.results

        if run.failures:
            self.worker_failures += run.failures
            warnings.warn(
                f"{run.failures} completeness-oracle worker(s) died; "
                f"re-checking {len(run.retry)} condition(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
        if run.retry:
            serial = self._serial_oracle()
            for index in sorted(run.retry):
                if deadline is not None and time.monotonic() > deadline:
                    break
                outcome = serial.check(run.retry[index], deadline=deadline)
                outcomes[index] = outcome
                if outcome.truncated:
                    break

        # Deterministic merge: original order, longest contiguous prefix.
        # A gap means some worker's deadline expired before reaching that
        # condition, so -- like the serial path -- the report ends there
        # and is marked truncated rather than skipping ahead.
        report = OracleReport()
        for index in range(len(conditions)):
            outcome = outcomes.get(index)
            if outcome is None:
                report.truncated = True
                break
            report.outcomes.append(outcome)
            if outcome.truncated:
                report.truncated = True
                break
        return report


def make_oracle(
    system: SymbolicSystem,
    spurious_engine: str,
    k: int,
    *,
    jobs: int = 1,
    respect_k: bool = True,
    state_only: bool = True,
    max_strengthenings: int = 100,
    domain_assumption: Expr | None = None,
    start_method: str = "spawn",
    canonical: bool | None = None,
    validate: bool = False,
) -> CompletenessOracle | ParallelCompletenessOracle:
    """Build a serial (``jobs=1``) or sharded (``jobs>1``) oracle.

    Both variants expose ``check``/``check_all``/``close``, so callers
    can treat the result uniformly and ``close()`` it when done.

    ``validate`` turns on the static-analysis boundary: the system is
    analyzed up front and every condition before it is checked (in
    workers too -- the flag travels inside :class:`OracleSpec`), raising
    :class:`~repro.analysis.diagnostics.AnalysisError` on ERROR
    findings.

    ``canonical`` controls counterexample canonicalisation.  Its default
    follows ``jobs``: the sharded oracle *requires* it (the merge is
    only serial-identical with history-independent outcomes), while the
    ``jobs=1`` default keeps the historical fast serial path.  Pass
    ``canonical=True`` with ``jobs=1`` to get the deterministic serial
    reference that any ``jobs>1`` report reproduces bit for bit.
    """
    if jobs == 1:
        return CompletenessOracle(
            system,
            build_spurious_checker(
                system, spurious_engine, respect_k=respect_k, state_only=state_only
            ),
            k,
            state_only=state_only,
            max_strengthenings=max_strengthenings,
            domain_assumption=domain_assumption,
            canonical_counterexamples=bool(canonical),
            validate=validate,
        )
    if canonical is False:
        raise ValueError(
            "jobs > 1 requires canonical counterexamples: without them "
            "worker outcomes depend on per-process solver state and the "
            "merged report would not be deterministic"
        )
    return ParallelCompletenessOracle(
        system,
        spurious_engine,
        k,
        jobs=jobs,
        respect_k=respect_k,
        state_only=state_only,
        max_strengthenings=max_strengthenings,
        domain_assumption=domain_assumption,
        start_method=start_method,
        validate=validate,
    )
