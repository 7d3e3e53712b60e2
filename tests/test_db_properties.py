"""Property-based tests for the database layer.

Random small tuple-independent databases and conjunctive queries; the
engine's lineage must agree with direct possible-worlds evaluation and
with a naive nested-loop evaluator, and SPROUT must agree with the
d-tree algorithms and brute force whenever it accepts the query.
"""

import itertools
import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_probability
from repro.core.formulas import conj, disj
from repro.core.semantics import brute_force_formula_probability
from repro.core.variables import VariableRegistry
from repro.db.cq import ConjunctiveQuery, Const, Inequality, SubGoal, Var
from repro.db.database import Database
from repro.db.engine import evaluate
from repro.db.relation import Relation
from repro.db.sprout import UnsafeQueryError, sprout_confidence

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_value = st.integers(min_value=1, max_value=3)
_prob = st.floats(min_value=0.1, max_value=0.9, allow_nan=False)


@st.composite
def databases(draw):
    """Two binary relations R(a,b), S(a,c) over a tiny value domain."""
    registry = VariableRegistry()
    database = Database(registry)
    for name, attrs in (("R", ["a", "b"]), ("S", ["a", "c"])):
        row_count = draw(st.integers(min_value=0, max_value=4))
        rows = {}
        for _ in range(row_count):
            key = (draw(_value), draw(_value))
            rows.setdefault(key, draw(_prob))
        database.add(
            Relation.tuple_independent(
                name, attrs, list(rows.items()), registry
            )
        )
    return database


def world_rows(relation, world):
    return [
        values
        for values, lineage in relation.rows
        if lineage.evaluate(world)
    ]


def all_worlds(registry):
    import itertools

    variables = sorted(registry.variables(), key=repr)
    for combo in itertools.product([True, False], repeat=len(variables)):
        world = dict(zip(variables, combo))
        yield world, registry.world_probability(world)


class TestEngineSemantics:
    @given(databases())
    @settings(**COMMON)
    def test_join_lineage_matches_worlds(self, database):
        a, b, c = Var("A"), Var("B"), Var("C")
        query = ConjunctiveQuery(
            [a], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
        )
        answers = {ans.values: ans.lineage for ans in evaluate(query, database)}
        registry = database.registry
        # Per world: the answer set of the deterministic instance must
        # equal the set of answers whose lineage holds.
        for world, _probability in all_worlds(registry):
            r_rows = world_rows(database["R"], world)
            s_rows = world_rows(database["S"], world)
            expected = {
                (ra,)
                for (ra, _rb) in r_rows
                for (sa, _sc) in s_rows
                if ra == sa
            }
            actual = {
                values
                for values, lineage in answers.items()
                if lineage.evaluate(world)
            }
            assert actual == expected

    @given(databases())
    @settings(**COMMON)
    def test_sprout_equals_dtree_and_brute_force(self, database):
        a, b, c = Var("A"), Var("B"), Var("C")
        query = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
        )
        registry = database.registry
        answers = evaluate(query, database)
        try:
            sprout = dict(sprout_confidence(query, database))
        except UnsafeQueryError:  # pragma: no cover - query is safe
            raise AssertionError("hierarchical query rejected")
        if not answers:
            assert sprout == {}
            return
        lineage = answers[0].lineage
        truth = brute_force_formula_probability(lineage, registry)
        assert math.isclose(sprout[()], truth, abs_tol=1e-9)
        assert math.isclose(
            exact_probability(lineage.to_dnf(), registry),
            truth,
            abs_tol=1e-9,
        )

    @given(databases())
    @settings(**COMMON)
    def test_projection_probability_monotone(self, database):
        """P(boolean query) ≥ P(any single answer of the non-boolean
        version): projection only merges evidence."""
        a, b, c = Var("A"), Var("B"), Var("C")
        boolean = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
        )
        grouped = ConjunctiveQuery(
            [a], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
        )
        registry = database.registry
        boolean_answers = evaluate(boolean, database)
        if not boolean_answers:
            return
        total = brute_force_formula_probability(
            boolean_answers[0].lineage, registry
        )
        for answer in evaluate(grouped, database):
            partial = brute_force_formula_probability(
                answer.lineage, registry
            )
            assert partial <= total + 1e-9


# ----------------------------------------------------------------------
# Relational differential: random conjunctive queries against a naive
# nested-loop evaluator, and SPROUT against brute force.
# ----------------------------------------------------------------------
_SCHEMA = {"R": 2, "S": 2, "T": 1}
_OPS = ("<", "<=", ">", ">=", "!=")


def random_database(rng):
    """R(a,b) and T(a) tuple-independent, S(a,c) half certain rows."""
    registry = VariableRegistry()
    database = Database(registry)
    for name, arity in _SCHEMA.items():
        rows = [
            (
                tuple(rng.randint(1, 2) for _ in range(arity)),
                1.0 if name == "S" and rng.random() < 0.5
                else rng.uniform(0.1, 0.9),
            )
            for _ in range(rng.randint(1, 4))
        ]
        attributes = ["a", "b"][:arity] if name != "S" else ["a", "c"]
        database.add(
            Relation.tuple_independent(name, attributes, rows, registry)
        )
    return database


def random_query(rng):
    """1–3 subgoals (self-joins allowed) with constants, repeated
    variables, a random head and var–var / var–const inequalities."""
    pool = [Var(name) for name in "ABCD"]
    subgoals = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(_SCHEMA))
        terms = [
            Const(rng.randint(1, 2)) if rng.random() < 0.2
            else rng.choice(pool)
            for _ in range(_SCHEMA[name])
        ]
        subgoals.append(SubGoal(name, terms))
    body = []
    for subgoal in subgoals:
        for var in subgoal.variables():
            if var not in body:
                body.append(var)
    head = [var for var in body if rng.random() < 0.4]
    rng.shuffle(head)
    inequalities = []
    for _ in range(rng.randint(0, 2) if body else 0):
        left = rng.choice(body)
        right = (
            rng.choice(body) if rng.random() < 0.6
            else Const(rng.randint(1, 2))
        )
        inequalities.append(Inequality(left, rng.choice(_OPS), right))
    return ConjunctiveQuery(head, subgoals, inequalities)


def naive_evaluate(query, database):
    """Nested loops over the subgoals in order and the rows in relation
    order; ``conj`` along each path, ``disj`` per answer in
    first-derivation order."""
    derivations = {}

    def extend(index, binding, path):
        if index == len(query.subgoals):
            if all(ineq.holds(binding) for ineq in query.inequalities):
                lineage = path[0]
                for row_lineage in path[1:]:
                    lineage = conj(lineage, row_lineage)
                answer = tuple(binding[var] for var in query.head)
                derivations.setdefault(answer, []).append(lineage)
            return
        subgoal = query.subgoals[index]
        for values, row_lineage in database[subgoal.relation].rows:
            new_binding = dict(binding)
            for term, value in zip(subgoal.terms, values):
                if isinstance(term, Const):
                    if term.value != value:
                        break
                elif new_binding.setdefault(term, value) != value:
                    break
            else:
                extend(index + 1, new_binding, path + [row_lineage])

    extend(0, {}, [])
    return [
        (answer, disj(*lineages)) for answer, lineages in derivations.items()
    ]


def reference_hierarchical(query):
    sets = [query.subgoal_set(var) for var in query.non_head_variables()]
    return all(
        a <= b or b <= a or a.isdisjoint(b)
        for a, b in itertools.combinations(sets, 2)
    )


class TestRelationalDifferential:
    SEEDS = range(400)

    def test_evaluate_matches_nested_loops(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            database = random_database(rng)
            query = random_query(rng)
            actual = [
                (answer.values, answer.lineage)
                for answer in evaluate(query, database)
            ]
            assert actual == naive_evaluate(query, database), (seed, query)

    def test_plan_classifications_match_definitions(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            random_database(rng)
            query = random_query(rng)
            names = [subgoal.relation for subgoal in query.subgoals]
            assert query.has_self_join() == (len(set(names)) < len(names))
            assert query.is_hierarchical() == reference_hierarchical(query)
            homes = [
                next(
                    (
                        index
                        for index, subgoal in enumerate(query.subgoals)
                        if set(ineq.variables()) <= set(subgoal.variables())
                    ),
                    None,
                )
                for ineq in query.inequalities
            ]
            assert list(query.plan.inequality_homes) == homes

    def test_sprout_matches_brute_force_where_accepted(self):
        accepted = 0
        for seed in self.SEEDS:
            rng = random.Random(seed)
            database = random_database(rng)
            query = random_query(rng)
            try:
                sprout = sprout_confidence(query, database)
            except UnsafeQueryError:
                continue
            answers = evaluate(query, database)
            accepted += bool(answers)
            assert [values for values, _p in sprout] == [
                answer.values for answer in answers
            ]
            for (_values, probability), answer in zip(sprout, answers):
                truth = brute_force_formula_probability(
                    answer.lineage, database.registry
                )
                assert math.isclose(probability, truth, abs_tol=1e-9), seed
        assert accepted >= 100
