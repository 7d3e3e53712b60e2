"""Tests for Shannon variable-order heuristics (incl. Lemma 6.8)."""

import random

import pytest

from repro.core.dnf import DNF
from repro.core.orders import (
    iq_variable_choice,
    make_variable_selector,
    max_frequency_choice,
)


def iq_lineage(x_count, y_count):
    """Lineage of q() :- R(X), S(Y), X < Y on sorted unit-spaced data:
    clause x_i ∧ y_j whenever i < j (x and y values interleaved so that
    x_i pairs with y_j for j ≥ i)."""
    clauses = []
    for i in range(x_count):
        for j in range(y_count):
            if i <= j:
                clauses.append({f"x{i}": True, f"y{j}": True})
    relation_of = {f"x{i}": "R" for i in range(x_count)}
    relation_of.update({f"y{j}": "S" for j in range(y_count)})
    return DNF.from_sets(clauses), relation_of


class TestMaxFrequency:
    def test_picks_most_frequent(self):
        dnf = DNF.from_sets(
            [{"a": True, "b": True}, {"a": True, "c": True}, {"c": False}]
        )
        assert max_frequency_choice(dnf) in {"a", "c"}

    def test_deterministic_tie_break(self):
        dnf = DNF.from_sets([{"a": True}, {"b": True}])
        assert max_frequency_choice(dnf) == max_frequency_choice(dnf)


class TestIQChoice:
    def test_finds_lemma_6_8_pivot(self):
        dnf, relation_of = iq_lineage(3, 3)
        choice = iq_variable_choice(dnf, relation_of)
        # x0 pairs with every y in the DNF: it satisfies the lemma.
        assert choice == "x0"

    def test_cofactor_subsumption_collapses(self):
        """After Shannon on the Lemma 6.8 pivot, the positive cofactor
        reduces to the co-factor (a disjunction of singletons)."""
        dnf, relation_of = iq_lineage(3, 3)
        pivot = iq_variable_choice(dnf, relation_of)
        cofactor = dnf.restrict(pivot, True).remove_subsumed()
        assert all(len(clause) == 1 for clause in cofactor)

    def test_missing_provenance_returns_none(self):
        dnf, relation_of = iq_lineage(2, 2)
        del relation_of["x0"]
        assert iq_variable_choice(dnf, relation_of) is None

    def test_single_relation_returns_none(self):
        dnf = DNF.from_sets([{"x0": True, "x1": True}])
        assert iq_variable_choice(dnf, {"x0": "R", "x1": "R"}) is None

    def test_non_iq_shape_returns_none(self):
        # Hard-pattern lineage: no variable co-occurs with all others.
        dnf = DNF.from_sets(
            [
                {"r1": True, "s11": True, "t1": True},
                {"r2": True, "s22": True, "t2": True},
            ]
        )
        relation_of = {
            "r1": "R", "r2": "R",
            "s11": "S", "s22": "S",
            "t1": "T", "t2": "T",
        }
        assert iq_variable_choice(dnf, relation_of) is None

    def test_candidate_cap_respected(self):
        dnf, relation_of = iq_lineage(4, 4)
        # With zero candidates allowed, nothing can be found.
        assert (
            iq_variable_choice(dnf, relation_of, max_candidates=0) is None
        )


def lemma_6_8_reference(dnf, relation_of, max_candidates=None):
    """Brute-force Lemma 6.8 pivot: the first candidate in the capped
    frequency order whose co-occurring variables hold every variable of
    every other relation (``None`` without full provenance or with a
    single relation)."""
    names = dnf.variables
    if not names or any(name not in relation_of for name in names):
        return None
    if len({relation_of[name] for name in names}) < 2:
        return None
    frequencies = dnf.variable_frequencies()
    order = sorted(names, key=lambda name: (-frequencies[name], repr(name)))
    if max_candidates is not None:
        order = order[:max_candidates]
    for candidate in order:
        occurring = set()
        for clause in dnf:
            if candidate in clause.variables:
                occurring |= clause.variables
        others = {
            name for name in names
            if relation_of[name] != relation_of[candidate]
        }
        if others <= occurring:
            return candidate
    return None


def random_relational_lineage(rng):
    """Lineage of a random multi-relation join: each clause binds one
    tuple variable of each relation it touches, so clause lengths and
    frequencies vary the way the counting bound cares about."""
    relations = "RST"[: rng.randint(2, 3)]
    pools = {
        relation: [f"{relation.lower()}{i}" for i in range(rng.randint(1, 5))]
        for relation in relations
    }
    clauses = []
    for _ in range(rng.randint(1, 12)):
        touched = rng.sample(relations, rng.randint(1, len(relations)))
        clauses.append({rng.choice(pools[r]): True for r in touched})
    relation_of = {
        name: relation for relation, pool in pools.items() for name in pool
    }
    return DNF.from_sets(clauses), relation_of


class TestIQChoiceReference:
    """``iq_variable_choice`` agrees with the brute-force Lemma 6.8 scan,
    so the counting bound that drops candidates early never changes
    the chosen pivot."""

    @pytest.mark.parametrize("max_candidates", [None, 1, 3, 25])
    def test_random_relational_lineage(self, max_candidates):
        rng = random.Random(68)
        found = 0
        for _ in range(300):
            dnf, relation_of = random_relational_lineage(rng)
            expected = lemma_6_8_reference(dnf, relation_of, max_candidates)
            assert iq_variable_choice(
                dnf, relation_of, max_candidates=max_candidates
            ) == expected
            found += expected is not None
        assert found > 0

    @pytest.mark.parametrize("x_count,y_count", [(1, 4), (3, 3), (5, 2), (6, 6)])
    def test_iq_lineage_succeeds(self, x_count, y_count):
        dnf, relation_of = iq_lineage(x_count, y_count)
        expected = lemma_6_8_reference(dnf, relation_of, 25)
        assert expected is not None
        assert iq_variable_choice(
            dnf, relation_of, max_candidates=25
        ) == expected


class TestCompositeSelector:
    def test_without_provenance_uses_max_frequency(self):
        selector = make_variable_selector(None)
        dnf = DNF.from_sets(
            [{"a": True, "b": True}, {"a": True, "c": True}]
        )
        assert selector(dnf) == "a"

    def test_with_provenance_prefers_iq(self):
        dnf, relation_of = iq_lineage(3, 3)
        selector = make_variable_selector(relation_of)
        assert selector(dnf) == "x0"

    def test_fallback_when_iq_inapplicable(self):
        relation_of = {"a": "R", "b": "S", "c": "S"}
        selector = make_variable_selector(relation_of)
        dnf = DNF.from_sets(
            [
                {"a": True, "b": True},
                {"a": True, "c": True},
                {"b": True, "c": True},
            ]
        )
        # a co-occurs with b and c (all of S) → the IQ rule may fire; if it
        # does not, the fallback must still return a variable of the DNF.
        assert selector(dnf) in dnf.variables


class TestIQPolynomialCompilation:
    def test_theorem_6_9_linear_dtree(self):
        """Compiling IQ lineage with the Lemma 6.8 order stays small."""
        from repro.core.approx import approximate_probability
        from repro.core.variables import VariableRegistry

        dnf, relation_of = iq_lineage(8, 8)
        reg = VariableRegistry.from_boolean_probabilities(
            {v: 0.3 for v in dnf.variables}
        )
        selector = make_variable_selector(relation_of)
        result = approximate_probability(
            dnf, reg, epsilon=0.0, choose_variable=selector
        )
        assert result.converged
        # Polynomial behaviour: on 36 clauses the step count stays small
        # (exponential expansion would blow past this immediately).
        assert result.steps <= 200

    def test_iq_exact_matches_brute_force(self):
        from repro.core.exact import exact_probability
        from repro.core.semantics import brute_force_probability
        from repro.core.variables import VariableRegistry

        dnf, relation_of = iq_lineage(4, 4)
        reg = VariableRegistry.from_boolean_probabilities(
            {v: 0.4 for v in dnf.variables}
        )
        selector = make_variable_selector(relation_of)
        assert exact_probability(
            dnf, reg, choose_variable=selector
        ) == pytest.approx(brute_force_probability(dnf, reg))
