"""Tests for the SPROUT-style exact operator (hierarchical queries)."""

import random

import pytest

from repro.core.semantics import brute_force_formula_probability
from repro.core.variables import VariableRegistry
from repro.db.cq import ConjunctiveQuery, Const, Inequality, SubGoal, Var
from repro.db.database import Database
from repro.db.engine import evaluate
from repro.db.relation import Relation
from repro.db.sprout import UnsafeQueryError, sprout_confidence


def random_hierarchical_instance(seed):
    """q(A?) :- R(A,B), S(A,C) on random small tuple-independent data."""
    rng = random.Random(seed)
    reg = VariableRegistry()
    db = Database(reg)
    r_rows = [
        ((rng.randint(1, 3), rng.randint(1, 3)), rng.uniform(0.2, 0.9))
        for _ in range(rng.randint(1, 5))
    ]
    s_rows = [
        ((rng.randint(1, 3), rng.randint(1, 3)), rng.uniform(0.2, 0.9))
        for _ in range(rng.randint(1, 5))
    ]
    # Deduplicate tuples to keep the instance set-valued.
    r_rows = list({values: p for values, p in r_rows}.items())
    s_rows = list({values: p for values, p in s_rows}.items())
    db.add(Relation.tuple_independent("R", ["a", "b"], r_rows, reg))
    db.add(Relation.tuple_independent("S", ["a", "c"], s_rows, reg))
    return db


class TestAgainstBruteForce:
    def test_boolean_query(self):
        for seed in range(20):
            db = random_hierarchical_instance(seed)
            a, b, c = Var("A"), Var("B"), Var("C")
            query = ConjunctiveQuery(
                [], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
            )
            expected = {
                ans.values: brute_force_formula_probability(
                    ans.lineage, db.registry
                )
                for ans in evaluate(query, db)
            }
            actual = dict(sprout_confidence(query, db))
            assert set(actual) == set(expected)
            for values, probability in actual.items():
                assert probability == pytest.approx(expected[values])

    def test_non_boolean_query(self):
        for seed in range(20):
            db = random_hierarchical_instance(seed + 100)
            a, b, c = Var("A"), Var("B"), Var("C")
            query = ConjunctiveQuery(
                [a], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
            )
            expected = {
                ans.values: brute_force_formula_probability(
                    ans.lineage, db.registry
                )
                for ans in evaluate(query, db)
            }
            actual = dict(sprout_confidence(query, db))
            assert set(actual) == set(expected)
            for values, probability in actual.items():
                assert probability == pytest.approx(expected[values])

    def test_three_level_hierarchy(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.tuple_independent(
                "R1",
                ["a", "b", "c"],
                [((1, 1, 1), 0.5), ((1, 2, 1), 0.4), ((2, 1, 2), 0.6)],
                reg,
            )
        )
        db.add(
            Relation.tuple_independent(
                "R2", ["a", "b"], [((1, 1), 0.7), ((1, 2), 0.2)], reg
            )
        )
        db.add(
            Relation.tuple_independent(
                "R3", ["a", "d"], [((1, 9), 0.3), ((2, 9), 0.8)], reg
            )
        )
        a, b, c, d = Var("A"), Var("B"), Var("C"), Var("D")
        query = ConjunctiveQuery(
            [d],
            [
                SubGoal("R1", [a, b, c]),
                SubGoal("R2", [a, b]),
                SubGoal("R3", [a, d]),
            ],
        )
        assert query.is_hierarchical()
        expected = {
            ans.values: brute_force_formula_probability(
                ans.lineage, db.registry
            )
            for ans in evaluate(query, db)
        }
        actual = dict(sprout_confidence(query, db))
        for values, probability in actual.items():
            assert probability == pytest.approx(expected[values])

    def test_certain_relation_in_join(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.tuple_independent(
                "R", ["a", "b"], [((1, 1), 0.5), ((2, 1), 0.6)], reg
            )
        )
        db.add(Relation.certain("D", ["a"], [(1,)]))
        a, b = Var("A"), Var("B")
        query = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("D", [a])]
        )
        result = dict(sprout_confidence(query, db))
        assert result[()] == pytest.approx(0.5)

    def test_local_selection_inequality(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.tuple_independent(
                "R", ["a", "b"], [((1, 5), 0.5), ((2, 50), 0.6)], reg
            )
        )
        a, b = Var("A"), Var("B")
        query = ConjunctiveQuery(
            [],
            [SubGoal("R", [a, b])],
            [Inequality(b, "<", Const(10))],
        )
        result = dict(sprout_confidence(query, db))
        assert result[()] == pytest.approx(0.5)


class TestRejections:
    def test_self_join_rejected(self):
        db = random_hierarchical_instance(0)
        a, b, c = Var("A"), Var("B"), Var("C")
        query = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("R", [a, c])]
        )
        with pytest.raises(UnsafeQueryError, match="self-join"):
            sprout_confidence(query, db)

    def test_non_hierarchical_rejected(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(Relation.tuple_independent("R", ["x"], [((1,), 0.5)], reg))
        db.add(
            Relation.tuple_independent(
                "S", ["x", "y"], [((1, 2), 0.5)], reg
            )
        )
        db.add(Relation.tuple_independent("T", ["y"], [((2,), 0.5)], reg))
        x, y = Var("X"), Var("Y")
        query = ConjunctiveQuery(
            [],
            [
                SubGoal("R", [x]),
                SubGoal("S", [x, y]),
                SubGoal("T", [y]),
            ],
        )
        with pytest.raises(UnsafeQueryError, match="hierarchical"):
            sprout_confidence(query, db)

    def test_cross_subgoal_inequality_rejected(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(Relation.tuple_independent("R", ["x"], [((1,), 0.5)], reg))
        db.add(Relation.tuple_independent("S", ["y"], [((2,), 0.5)], reg))
        x, y = Var("X"), Var("Y")
        query = ConjunctiveQuery(
            [],
            [SubGoal("R", [x]), SubGoal("S", [y])],
            [Inequality(x, "<", y)],
        )
        with pytest.raises(UnsafeQueryError, match="joins subgoals"):
            sprout_confidence(query, db)

    def test_composite_lineage_rejected(self):
        from repro.core.formulas import atom, disj

        reg = VariableRegistry()
        reg.add_boolean("v1", 0.5)
        reg.add_boolean("v2", 0.5)
        db = Database(reg)
        relation = Relation(
            "C", ["x"], [((1,), disj(atom("v1"), atom("v2")))]
        )
        db.add(relation)
        x = Var("X")
        query = ConjunctiveQuery([], [SubGoal("C", [x])])
        with pytest.raises(UnsafeQueryError, match="tuple-independent"):
            sprout_confidence(query, db)

    def test_unreached_composite_row_is_never_priced(self):
        # Row probabilities are computed only for rows some answer reaches:
        # a composite row outside every answer's group does not make the
        # query unsafe, one inside does.
        from repro.core.formulas import atom, disj

        reg = VariableRegistry()
        for name in ("r1", "r2", "c1", "v1", "v2"):
            reg.add_boolean(name, 0.5)
        db = Database(reg)
        db.add(Relation("R", ["x"], [((1,), atom("r1")), ((2,), atom("r2"))]))
        db.add(
            Relation(
                "C",
                ["x"],
                [((1,), atom("c1")), ((5,), disj(atom("v1"), atom("v2")))],
            )
        )
        x = Var("X")
        joined = ConjunctiveQuery([x], [SubGoal("R", [x]), SubGoal("C", [x])])
        assert sprout_confidence(joined, db) == [((1,), 0.25)]
        selected = ConjunctiveQuery(
            [], [SubGoal("C", [x])], [Inequality(x, "<", Const(5))]
        )
        assert sprout_confidence(selected, db) == [((), 0.5)]
        boolean = ConjunctiveQuery([], [SubGoal("R", [x]), SubGoal("C", [x])])
        with pytest.raises(UnsafeQueryError, match="tuple-independent"):
            sprout_confidence(boolean, db)
