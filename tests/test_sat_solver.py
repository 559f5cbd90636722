"""Tests for the CDCL SAT solver: correctness on crafted and random CNFs."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CNF, GateBuilder, Solver, check_model, luby, solve_cnf


def brute_force_sat(cnf: CNF) -> bool:
    """Reference: enumerate all assignments (for small formulas)."""
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assignment = {v: bits[v - 1] for v in range(1, cnf.num_vars + 1)}
        if check_model(cnf, assignment):
            return True
    return False


class TestCnfContainer:
    def test_new_vars(self):
        cnf = CNF()
        assert cnf.new_vars(3) == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_add_clause_validates(self):
        cnf = CNF()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([2])
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_dimacs_roundtrip(self, tmp_path):
        cnf = CNF()
        cnf.new_vars(3)
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3])
        path = tmp_path / "f.cnf"
        with open(path, "w") as out:
            cnf.to_dimacs(out)
        with open(path) as src:
            back = CNF.from_dimacs(src)
        assert back.num_vars == 3
        assert back.clauses == [[1, -2], [2, 3]]


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestSolverBasics:
    def test_empty_formula_sat(self):
        assert solve_cnf(CNF()).satisfiable

    def test_single_unit(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert result.value(1) is True

    def test_contradictory_units(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert not solve_cnf(cnf).satisfiable

    def test_simple_implication_chain(self):
        cnf = CNF()
        cnf.new_vars(4)
        cnf.add_clause([1])
        cnf.add_clause([-1, 2])
        cnf.add_clause([-2, 3])
        cnf.add_clause([-3, 4])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert all(result.value(v) for v in range(1, 5))

    def test_unsat_pigeonhole_2_in_1(self):
        # Two pigeons, one hole.
        cnf = CNF()
        p1, p2 = cnf.new_vars(2)
        cnf.add_clause([p1])
        cnf.add_clause([p2])
        cnf.add_clause([-p1, -p2])
        assert not solve_cnf(cnf).satisfiable

    def test_model_satisfies_formula(self):
        cnf = CNF()
        cnf.new_vars(5)
        cnf.add_clause([1, 2, 3])
        cnf.add_clause([-1, -2])
        cnf.add_clause([-3, 4])
        cnf.add_clause([-4, 5, -1])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert check_model(cnf, result.model)

    def test_assumptions_force_polarity(self):
        cnf = CNF()
        cnf.new_vars(2)
        cnf.add_clause([1, 2])
        result = solve_cnf(cnf, assumptions=[-1])
        assert result.satisfiable
        assert result.value(2) is True

    def test_assumptions_can_make_unsat(self):
        cnf = CNF()
        cnf.new_vars(2)
        cnf.add_clause([1, 2])
        assert not solve_cnf(cnf, assumptions=[-1, -2]).satisfiable


def pigeonhole_cnf(pigeons: int, holes: int) -> CNF:
    """PHP(p, h): each pigeon in a hole, no two share one."""
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestSolverHard:
    def test_php_4_3_unsat(self):
        assert not solve_cnf(pigeonhole_cnf(4, 3)).satisfiable

    def test_php_5_4_unsat(self):
        assert not solve_cnf(pigeonhole_cnf(5, 4)).satisfiable

    def test_php_4_4_sat(self):
        result = solve_cnf(pigeonhole_cnf(4, 4))
        assert result.satisfiable

    def test_random_3sat_agrees_with_brute_force(self):
        rng = random.Random(12345)
        for trial in range(40):
            num_vars = rng.randint(3, 8)
            num_clauses = rng.randint(2, 30)
            cnf = CNF()
            cnf.new_vars(num_vars)
            for _ in range(num_clauses):
                clause_vars = rng.sample(range(1, num_vars + 1), k=min(3, num_vars))
                cnf.add_clause(
                    [v if rng.random() < 0.5 else -v for v in clause_vars]
                )
            expected = brute_force_sat(cnf)
            result = solve_cnf(cnf)
            assert result.satisfiable == expected, f"trial {trial}"
            if result.satisfiable:
                assert check_model(cnf, result.model)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_hypothesis_random_cnf(self, data):
        num_vars = data.draw(st.integers(2, 7))
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, num_vars).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=20,
            )
        )
        cnf = CNF()
        cnf.new_vars(num_vars)
        for clause in clauses:
            cnf.add_clause(clause)
        expected = brute_force_sat(cnf)
        result = solve_cnf(cnf)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert check_model(cnf, result.model)


class TestGateBuilder:
    def _fresh(self):
        cnf = CNF()
        return cnf, GateBuilder(cnf)

    def _check_gate(self, build, table):
        """build(gates, a, b) -> out; table maps (va, vb) -> expected."""
        for va, vb in table:
            cnf, gates = self._fresh()
            a, b = cnf.new_vars(2)
            out = build(gates, a, b)
            result = solve_cnf(
                cnf, assumptions=[a if va else -a, b if vb else -b, out]
            )
            assert result.satisfiable == table[va, vb], (va, vb)

    def test_and_gate_truth_table(self):
        table = {(0, 0): False, (0, 1): False, (1, 0): False, (1, 1): True}
        self._check_gate(lambda g, a, b: g.and_gate(a, b), table)

    def test_or_gate_truth_table(self):
        table = {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): True}
        self._check_gate(lambda g, a, b: g.or_gate(a, b), table)

    def test_xor_gate_truth_table(self):
        table = {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): False}
        self._check_gate(lambda g, a, b: g.xor_gate(a, b), table)

    def test_xnor_gate_truth_table(self):
        table = {(0, 0): True, (0, 1): False, (1, 0): False, (1, 1): True}
        self._check_gate(lambda g, a, b: g.xnor_gate(a, b), table)

    def test_constant_folding(self):
        cnf, gates = self._fresh()
        a = cnf.new_var()
        assert gates.and_gate(a, gates.false_lit) == gates.false_lit
        assert gates.and_gate(a, gates.true_lit) == a
        assert gates.or_gate(a, gates.true_lit) == gates.true_lit
        assert gates.or_gate(a, gates.false_lit) == a
        assert gates.xor_gate(a, gates.false_lit) == a
        assert gates.xor_gate(a, gates.true_lit) == -a

    def test_complement_folding(self):
        cnf, gates = self._fresh()
        a = cnf.new_var()
        assert gates.and_gate(a, -a) == gates.false_lit
        assert gates.or_gate(a, -a) == gates.true_lit
        assert gates.xor_gate(a, a) == gates.false_lit
        assert gates.xor_gate(a, -a) == gates.true_lit

    def test_gate_caching(self):
        cnf, gates = self._fresh()
        a, b = cnf.new_vars(2)
        assert gates.and_gate(a, b) == gates.and_gate(b, a)
        assert gates.or_gate(a, b) == gates.or_gate(b, a)

    def test_full_adder(self):
        for va, vb, vc in itertools.product([0, 1], repeat=3):
            cnf, gates = self._fresh()
            a, b, c = cnf.new_vars(3)
            total, carry = gates.full_adder(a, b, c)
            assumptions = [
                a if va else -a, b if vb else -b, c if vc else -c,
            ]
            result = solve_cnf(cnf, assumptions=assumptions)
            assert result.satisfiable
            expected = va + vb + vc
            assert result.lit_true(total) == bool(expected & 1)
            assert result.lit_true(carry) == bool(expected >> 1)

    def test_ite_gate(self):
        for vc, vt, ve in itertools.product([0, 1], repeat=3):
            cnf, gates = self._fresh()
            c, t, e = cnf.new_vars(3)
            out = gates.ite_gate(c, t, e)
            assumptions = [c if vc else -c, t if vt else -t, e if ve else -e]
            result = solve_cnf(cnf, assumptions=assumptions)
            assert result.satisfiable
            assert result.lit_true(out) == bool(vt if vc else ve)

    def test_assert_false_constant_makes_unsat(self):
        cnf, gates = self._fresh()
        gates.assert_true(gates.false_lit)
        assert not solve_cnf(cnf).satisfiable


class TestClauseDbHygiene:
    """LBD-scored learned-clause aging for long-lived (session) solvers."""

    def test_learned_clauses_carry_lbd_tags(self):
        from repro.sat.solver import _LearnedClause

        solver = Solver(pigeonhole_cnf(5, 4))
        assert not solver.solve().satisfiable
        assert solver.conflicts > 0
        for clause in solver._learned:
            assert isinstance(clause, _LearnedClause)
            assert clause.lbd >= 1

    def test_reduction_never_drops_reason_clauses(self):
        """Every reduction (organic and forced) must keep clauses that
        are currently locked as propagation reasons: a dropped reason
        would dangle in the implication graph."""
        solver = Solver(pigeonhole_cnf(6, 5))
        solver._max_learned = 8  # force constant reduction churn
        reductions = 0
        original = solver._reduce_learned

        def checked(force=False):
            nonlocal reductions
            original(force)
            reductions += 1
            live = {
                id(clause)
                for watch in solver._watches.values()
                for clause in watch
            }
            for var in range(1, solver._num_vars + 1):
                reason = solver._reason[var]
                if reason is not None and len(reason) > 1:
                    assert id(reason) in live, (
                        f"reduction dropped the reason of v{var}"
                    )

        solver._reduce_learned = checked
        assert not solver.solve().satisfiable
        assert reductions > 0, "workload never triggered a reduction"

    def test_forced_reduction_keeps_glue_and_binary_clauses(self):
        solver = Solver(pigeonhole_cnf(6, 5))
        assert not solver.solve().satisfiable
        protected = {
            id(c) for c in solver._learned if c.lbd <= 2 or len(c) <= 2
        }
        before = solver.num_learned
        solver._reduce_learned(force=True)
        survivors = {id(c) for c in solver._learned}
        assert protected <= survivors, "reduction dropped a glue clause"
        if before > len(protected):
            assert solver.num_learned < before

    def test_maintain_between_solves_preserves_verdicts(self):
        """The session-hygiene hook may be called between queries without
        changing any answer (clause deletion only forgets lemmas)."""
        rng = random.Random(7)
        cnf = CNF()
        cnf.new_vars(9)
        for _ in range(35):
            clause_vars = rng.sample(range(1, 10), k=3)
            cnf.add_clause(
                [v if rng.random() < 0.5 else -v for v in clause_vars]
            )
        assumption_sets = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 10), k=2)]
            for _ in range(8)
        ]
        reference = Solver(cnf)
        expected = [
            reference.solve(assumptions).satisfiable
            for assumptions in assumption_sets
        ]
        maintained = Solver(cnf)
        observed = []
        for assumptions in assumption_sets:
            observed.append(maintained.solve(assumptions).satisfiable)
            maintained.maintain()
        assert observed == expected

    def test_rescale_var_activity_preserves_order_and_compacts(self):
        solver = Solver(pigeonhole_cnf(5, 4))
        assert not solver.solve().satisfiable
        # Blow up the activities artificially and bloat the lazy heap.
        for var in range(1, solver._num_vars + 1):
            solver._activity[var] *= 1e30
        ranking = sorted(
            range(1, solver._num_vars + 1),
            key=lambda v: (-solver._activity[v], v),
        )
        solver.rescale_var_activity()
        after = sorted(
            range(1, solver._num_vars + 1),
            key=lambda v: (-solver._activity[v], v),
        )
        assert after == ranking
        assert max(solver._activity[1:]) <= 1.0
        assert len(solver._order) == solver._num_vars


def random_3sat(seed: int, num_vars: int, num_clauses: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF()
    cnf.new_vars(num_vars)
    for _ in range(num_clauses):
        clause_vars = rng.sample(range(1, num_vars + 1), k=3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause_vars])
    return cnf


def _fingerprint(result) -> tuple:
    return (
        result.satisfiable,
        result.conflicts,
        result.decisions,
        result.propagations,
        result.unsat_core,
        tuple(sorted(v for v, value in result.model.items() if value)),
    )


def _search_state_digest(solver: Solver) -> str:
    """Digest of everything the search leaves behind: learned clauses
    with their LBD tags, saved phases, VSIDS activities and increment,
    and the lazy heap in push order."""
    state = (
        [(list(c), c.lbd) for c in solver._learned],
        solver._phase,
        solver._activity,
        solver._var_inc,
        solver._order,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def _one_shot_trajectory(cnf: CNF, var_inc: float = 1.0) -> list:
    solver = Solver(cnf)
    solver._var_inc = var_inc
    return [_fingerprint(solver.solve()), _search_state_digest(solver)]


def _incremental_trajectory() -> list:
    """Assumptions, a retractable group, organic and forced reductions,
    and clauses added between solves, all on one long-lived solver."""
    solver = Solver(random_3sat(101, 80, 310))
    solver._max_learned = 16  # organic reductions at every restart
    group = solver.new_group()
    for clause in random_3sat(303, 80, 30).clauses:
        solver.add_clause(clause, group=group)
    rng = random.Random(202)
    out = []
    for step in range(12):
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, 81), k=3)
        ]
        out.append(_fingerprint(solver.solve(assumptions)))
        if step == 4:
            solver.retract_group(group)
        elif step == 6:
            solver._reduce_learned(force=True)
        elif step == 8:
            solver.add_clause(assumptions)
    out.append(_search_state_digest(solver))
    return out


TRAJECTORY_CASES = {
    **{
        f"3sat-60x256-seed{seed}": lambda seed=seed: _one_shot_trajectory(
            random_3sat(seed, 60, 256)
        )
        for seed in range(6)
    },
    "3sat-90x384-seed7": lambda: _one_shot_trajectory(random_3sat(7, 90, 384)),
    "3sat-60x256-rescale": lambda: _one_shot_trajectory(
        random_3sat(0, 60, 256), var_inc=1e99
    ),
    "php-6-5": lambda: _one_shot_trajectory(pigeonhole_cnf(6, 5)),
    "incremental": _incremental_trajectory,
}

# Captured from the solver before its hot loops were inlined; any edit
# to the search must reproduce these exactly (see sat/solver.py).
EXPECTED_TRAJECTORIES = {
    "3sat-60x256-rescale": [
        (False, 121, 163, 2009, (), ()),
        "6a4b31fa83fa9d17",
    ],
    "3sat-60x256-seed0": [
        (False, 144, 173, 2187, (), ()),
        "bfd6fc0c698f858c",
    ],
    "3sat-60x256-seed1": [
        (True, 10, 30, 199, None,
            (10, 12, 14, 16, 18, 20, 22, 23, 24, 26, 28, 29, 31, 32, 33, 34,
             36, 37, 38, 39, 40, 43, 44, 45, 46, 50, 52, 59)),
        "f089e25eee0b25f1",
    ],
    "3sat-60x256-seed2": [
        (False, 143, 179, 2299, (), ()),
        "52973ec8c8d0c109",
    ],
    "3sat-60x256-seed3": [
        (True, 34, 45, 570, None,
            (4, 5, 7, 8, 9, 10, 12, 13, 15, 17, 19, 25, 26, 27, 28, 29, 30, 31,
             35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 49, 50, 51, 54, 55,
             57, 58, 59, 60)),
        "062b7842d6babb81",
    ],
    "3sat-60x256-seed4": [
        (True, 35, 60, 460, None,
            (1, 2, 4, 5, 7, 9, 11, 12, 13, 15, 16, 18, 22, 27, 28, 29, 30, 31,
             33, 34, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 47, 49, 53, 54,
             56, 57, 59)),
        "1d332bef7d76ba78",
    ],
    "3sat-60x256-seed5": [
        (False, 64, 80, 926, (), ()),
        "6887609e63cae7a9",
    ],
    "3sat-90x384-seed7": [
        (False, 351, 427, 7543, (), ()),
        "481e9395105b1617",
    ],
    "incremental": [
        (False, 58, 67, 1104, (-50, 61, 53), ()),
        (False, 77, 88, 1486, (-8, 55, -57), ()),
        (False, 129, 148, 2510, (-26, -31, -64), ()),
        (False, 156, 175, 2996, (25, 52, -42), ()),
        (False, 179, 198, 3423, (-5, 67, -32), ()),
        (False, 248, 271, 4811, (-64, 35, -6), ()),
        (False, 280, 309, 5425, (13, 5, -49), ()),
        (False, 383, 424, 7768, (-16, -46, -17), ()),
        (True, 398, 451, 8271, None,
            (3, 6, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 22, 23, 28, 29, 30,
             31, 34, 37, 40, 42, 44, 45, 47, 49, 54, 55, 58, 60, 61, 63, 64,
             65, 68, 69, 70, 76, 78, 80)),
        (True, 434, 505, 9066, None,
            (1, 3, 8, 10, 11, 15, 16, 17, 19, 20, 22, 23, 25, 26, 35, 41, 42,
             46, 49, 50, 51, 55, 58, 60, 63, 64, 66, 68, 69, 70, 72, 73, 74, 76)),
        (False, 466, 540, 9756, (-50, 51, 67), ()),
        (True, 501, 595, 10699, None,
            (6, 8, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 22, 23, 25, 28, 41,
             42, 44, 45, 47, 49, 50, 51, 54, 55, 58, 60, 63, 64, 66, 69, 70,
             72, 73, 74, 76, 78, 80)),
        "e44c47b40ee89360",
    ],
    "php-6-5": [
        (False, 159, 217, 1859, (), ()),
        "4ca34678b463f670",
    ],
}


class TestSearchTrajectoryPinned:
    """The CDCL search is deterministic: same propagation order, learned
    clauses, heap pushes and phases give the same counts, cores and
    models.  Hot-path rewrites must keep every case bit-for-bit."""

    @pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
    def test_trajectory_matches_capture(self, case):
        assert TRAJECTORY_CASES[case]() == EXPECTED_TRAJECTORIES[case]

    def test_family_covers_sat_unsat_cores_and_rescale(self):
        verdicts = {
            traj[0][0] for case, traj in EXPECTED_TRAJECTORIES.items()
            if case != "incremental"
        }
        assert verdicts == {True, False}
        incremental = EXPECTED_TRAJECTORIES["incremental"][:-1]
        assert any(r[4] for r in incremental), "no non-empty unsat core"
        assert any(r[0] for r in incremental)
        solver = Solver(random_3sat(0, 60, 256))
        solver._var_inc = 1e99
        solver.solve()
        assert solver._var_inc < 1e99, "activity rescale never fired"
