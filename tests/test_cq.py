"""Tests for query classification (hierarchical / IQ / Theorem 6.4)."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro import ProbDB
from repro.core.variables import VariableRegistry
from repro.db.cq import (
    ConjunctiveQuery,
    Const,
    Inequality,
    SubGoal,
    Var,
    hard_pattern_tractable,
)
from repro.db.database import Database
from repro.db.engine import evaluate
from repro.db.relation import Relation
from repro.db.sprout import sprout_confidence


class TestTerms:
    def test_var_equality(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("Y")
        assert Var("X") != Const("X")

    def test_const_equality(self):
        assert Const(1) == Const(1)
        assert Const(1) != Const(2)

    def test_subgoal_variables_deduplicated(self):
        a = Var("A")
        sg = SubGoal("R", [a, a, Const(3)])
        assert sg.variables() == [a]

    def test_inequality_validation(self):
        with pytest.raises(ValueError, match="operator"):
            Inequality(Var("X"), "~", Var("Y"))

    def test_inequality_holds(self):
        x, y = Var("X"), Var("Y")
        assert Inequality(x, "<", y).holds({x: 1, y: 2})
        assert not Inequality(x, ">=", y).holds({x: 1, y: 2})
        assert Inequality(x, "!=", Const(5)).holds({x: 4})


class TestQueryStructure:
    def test_head_variable_must_occur_in_body(self):
        with pytest.raises(ValueError, match="head variable"):
            ConjunctiveQuery([Var("Z")], [SubGoal("R", [Var("A")])])

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="at least one subgoal"):
            ConjunctiveQuery([], [])

    def test_subgoal_set(self):
        a, b = Var("A"), Var("B")
        q = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("S", [a])]
        )
        assert q.subgoal_set(a) == frozenset({0, 1})
        assert q.subgoal_set(b) == frozenset({0})

    def test_self_join_detection(self):
        a = Var("A")
        q = ConjunctiveQuery(
            [], [SubGoal("R", [a]), SubGoal("R", [a])]
        )
        assert q.has_self_join()

    def test_boolean_flag(self):
        a = Var("A")
        assert ConjunctiveQuery([], [SubGoal("R", [a])]).is_boolean()
        assert not ConjunctiveQuery([a], [SubGoal("R", [a])]).is_boolean()

    def test_repr_is_datalog_like(self):
        a, b = Var("A"), Var("B")
        q = ConjunctiveQuery(
            [a],
            [SubGoal("R", [a, b])],
            [Inequality(b, "<", Const(5))],
            name="test",
        )
        assert "test(A) :- R(A, B)" in repr(q)


class TestHierarchy:
    def test_head_variables_exempt(self):
        # X and Y overlap only through the head variable—still counted
        # per Definition 6.1 on *non-head* variables only.
        x, y, z = Var("X"), Var("Y"), Var("Z")
        q = ConjunctiveQuery(
            [x],
            [SubGoal("R", [x, y]), SubGoal("S", [x, z])],
        )
        assert q.is_hierarchical()

    def test_hard_pattern_not_hierarchical(self):
        x, y = Var("X"), Var("Y")
        q = ConjunctiveQuery(
            [],
            [SubGoal("R", [x]), SubGoal("S", [x, y]), SubGoal("T", [y])],
        )
        assert not q.is_hierarchical()

    def test_contained_subgoal_sets(self):
        a, b = Var("A"), Var("B")
        q = ConjunctiveQuery(
            [],
            [SubGoal("R", [a, b]), SubGoal("S", [a])],
        )
        # sg(B) = {0} ⊆ sg(A) = {0, 1}
        assert q.is_hierarchical()


class TestTheorem64:
    """Tractable instances of R(X), S(X,Y), T(Y) by the structure of S."""

    def _relation(self, rows, probabilistic=True):
        reg = VariableRegistry()
        if probabilistic:
            return Relation.tuple_independent(
                "S", ["x", "y"], [(row, 0.5) for row in rows], reg
            )
        return Relation.certain("S", ["x", "y"], rows)

    def test_functional_x_to_y(self):
        # Every X connects to one Y: functional.
        s = self._relation([(1, 10), (2, 10), (3, 20)])
        assert hard_pattern_tractable(s, "x", "y")

    def test_functional_y_to_x(self):
        s = self._relation([(1, 10), (1, 20), (2, 30)])
        assert hard_pattern_tractable(s, "x", "y")

    def test_mixed_functional_components(self):
        # Component {1,2}→{10} functional; component {3}→{20,30} functional.
        s = self._relation([(1, 10), (2, 10), (3, 20), (3, 30)])
        assert hard_pattern_tractable(s, "x", "y")

    def test_complete_deterministic_component(self):
        # 2×2 complete bipartite block, deterministic S: tractable.
        s = self._relation(
            [(1, 10), (1, 20), (2, 10), (2, 20)], probabilistic=False
        )
        assert hard_pattern_tractable(s, "x", "y")

    def test_complete_probabilistic_component_not_tractable(self):
        s = self._relation([(1, 10), (1, 20), (2, 10), (2, 20)])
        assert not hard_pattern_tractable(s, "x", "y")

    def test_incomplete_nonfunctional_component_not_tractable(self):
        # Path 1-10, 1-20, 2-20: neither functional nor complete.
        s = self._relation([(1, 10), (1, 20), (2, 20)])
        assert not hard_pattern_tractable(s, "x", "y")

    def test_generalises_early_fd_result(self):
        """The early tractability result (FD on all of S) is the special
        case where every component is functional."""
        s = self._relation([(x, x * 10) for x in range(1, 6)])
        assert hard_pattern_tractable(s, "x", "y")


# ----------------------------------------------------------------------
# The cached query plan holds no database state
# ----------------------------------------------------------------------
def _two_relation_db(r_rows, s_rows):
    reg = VariableRegistry()
    db = Database(reg)
    db.add(Relation.tuple_independent("R", ["a", "b"], r_rows, reg))
    db.add(Relation.tuple_independent("S", ["a", "c"], s_rows, reg))
    return db


def _join_query():
    a, b, c = Var("A"), Var("B"), Var("C")
    return ConjunctiveQuery(
        [a],
        [SubGoal("R", [a, b]), SubGoal("S", [a, c])],
        [Inequality(b, "!=", Const(9))],
    )


def _fresh_results(db):
    """Answers, lineage and SPROUT floats from a never-planned query."""
    query = _join_query()
    return (
        [(ans.values, ans.lineage) for ans in evaluate(query, db)],
        sprout_confidence(query, db),
    )


class TestPlanSafety:
    def test_one_query_over_two_databases(self):
        query = _join_query()
        first = _two_relation_db(
            [((1, 1), 0.5), ((2, 1), 0.4)], [((1, 3), 0.7)]
        )
        second = _two_relation_db(
            [((2, 2), 0.3), ((2, 9), 0.6), ((3, 1), 0.2)],
            [((2, 5), 0.8), ((3, 5), 0.9), ((2, 6), 0.1)],
        )
        for db in (first, second, first):
            actual = (
                [(ans.values, ans.lineage) for ans in evaluate(query, db)],
                sprout_confidence(query, db),
            )
            assert actual == _fresh_results(db)
        assert [values for values, _p in sprout_confidence(query, second)] == [
            (2,), (3,)
        ]

    def test_one_query_across_dml(self):
        query = _join_query()
        session = ProbDB(
            _two_relation_db(
                [((1, 1), 0.5)], [((1, 3), 0.7), ((2, 5), 0.4)]
            )
        )
        seen = []
        for statement in (
            None,
            "insert into R values (2, 4) with probability 0.5",
            "insert into S values (2, 8)",
            "update R set a = 2, probability 0.25 where b = 1",
            "delete from S where c = 8",
        ):
            if statement is not None:
                session.execute(statement)
            got = [
                (values, outcome.probability)
                for values, outcome in session.query(query).confidences()
            ]
            expected = [
                (values, outcome.probability)
                for values, outcome in session.query(
                    _join_query()
                ).confidences()
            ]
            assert got == expected
            lineage = [
                (ans.values, ans.lineage)
                for ans in evaluate(query, session.database)
            ]
            assert lineage == _fresh_results(session.database)[0]
            seen.append(got)
        # Each statement changed the answers or their confidences.
        assert all(a != b for a, b in zip(seen, seen[1:]))


_PICKLE_SCRIPT = """
import pickle, sys
from repro.db.cq import ConjunctiveQuery, Const, Inequality, SubGoal, Var
a, b = Var("A"), Var("B")
query = ConjunctiveQuery(
    [a], [SubGoal("R", [a, b, Const("k")])], [Inequality(b, "<", Const(3))]
)
query.plan  # planned before pickling
sys.stdout.buffer.write(pickle.dumps((Var("A"), Const("k"), query)))
"""

_UNPICKLE_SCRIPT = """
import pickle, sys
from repro.core.variables import VariableRegistry
from repro.db.cq import Const, Var
from repro.db.database import Database
from repro.db.engine import evaluate
from repro.db.relation import Relation
var, const, query = pickle.loads(sys.stdin.buffer.read())
assert hash(var) == hash(Var("A")) and var == Var("A")
assert hash(const) == hash(Const("k")) and const == Const("k")
assert {Var("A"): 1}[query.head[0]] == 1
reg = VariableRegistry()
db = Database(reg)
rows = [((1, 2, "k"), 0.5), ((2, 5, "k"), 0.5), ((3, 1, "j"), 0.5)]
db.add(Relation.tuple_independent("R", ["a", "b", "c"], rows, reg))
print([ans.values for ans in evaluate(query, db)], query.is_hierarchical())
"""


def test_terms_and_planned_query_pickle_across_hash_seeds():
    src = os.path.dirname(os.path.dirname(repro.__file__))

    def run(script, seed, stdin=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", script],
            input=stdin,
            env=env,
            capture_output=True,
            check=True,
        ).stdout

    payload = run(_PICKLE_SCRIPT, 1)
    assert run(_UNPICKLE_SCRIPT, 2, payload).decode().split() == [
        "[(1,)]",
        "True",
    ]
    # In-process round trips keep equality and the cached hash.
    var, const, query = pickle.loads(payload)
    assert hash(var) == hash(Var("A")) and hash(const) == hash(Const("k"))
    assert query.plan is not None and query.head == (Var("A"),)
