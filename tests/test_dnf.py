"""Unit tests for DNF formulas (repro.core.dnf)."""

import random

import pytest

from repro.core.dnf import DNF
from repro.core.events import Atom, Clause
from repro.core.variables import VariableRegistry


@pytest.fixture
def registry():
    return VariableRegistry.from_boolean_probabilities(
        {"x": 0.3, "y": 0.2, "z": 0.7, "v": 0.8}
    )


class TestConstruction:
    def test_false_and_true(self):
        assert DNF.false().is_false()
        assert DNF.true().is_true()
        assert not DNF.true().is_false()

    def test_from_sets(self):
        dnf = DNF.from_sets([{"x": True}, {"y": False}])
        assert len(dnf) == 2
        assert dnf.variables == frozenset({"x", "y"})

    def test_from_positive_clauses(self):
        dnf = DNF.from_positive_clauses([["x", "y"], ["z"]])
        assert Clause.positive("x", "y") in dnf
        assert Clause.positive("z") in dnf

    def test_of_atoms(self):
        dnf = DNF.of_atoms(Atom("x"), Atom("y", False))
        assert len(dnf) == 2

    def test_duplicate_clauses_collapse(self):
        dnf = DNF([Clause({"x": True}), Clause({"x": True})])
        assert len(dnf) == 1

    def test_size_counts_atoms(self):
        dnf = DNF.from_sets([{"x": True, "y": False}, {"z": True}])
        assert dnf.size() == 3

    def test_immutability(self):
        dnf = DNF.true()
        with pytest.raises(AttributeError):
            dnf._clauses = frozenset()


class TestSubsumption:
    def test_removes_supersets(self):
        dnf = DNF.from_sets(
            [{"x": True}, {"x": True, "y": True}, {"y": False}]
        )
        reduced = dnf.remove_subsumed()
        assert len(reduced) == 2
        assert Clause({"x": True}) in reduced
        assert Clause({"y": False}) in reduced

    def test_empty_clause_wins(self):
        dnf = DNF([Clause(), Clause({"x": True})])
        assert dnf.remove_subsumed() == DNF.true()

    def test_no_change_returns_same_object(self):
        dnf = DNF.from_sets([{"x": True}, {"y": True}])
        assert dnf.remove_subsumed() is dnf

    def test_equal_value_required_for_subsumption(self):
        dnf = DNF.from_sets([{"x": True}, {"x": False, "y": True}])
        assert len(dnf.remove_subsumed()) == 2

    def test_chain_of_subsumptions(self):
        dnf = DNF.from_sets(
            [
                {"x": True},
                {"x": True, "y": True},
                {"x": True, "y": True, "z": True},
            ]
        )
        assert len(dnf.remove_subsumed()) == 1

    def test_semantics_preserved(self, registry):
        from repro.core.semantics import (
            brute_force_probability,
            equivalent_on_registry,
        )

        dnf = DNF.from_sets(
            [
                {"x": True, "y": True},
                {"x": True},
                {"z": True, "v": False},
                {"z": True, "v": False, "x": False},
            ]
        )
        reduced = dnf.remove_subsumed()
        assert equivalent_on_registry(dnf, reduced, registry)
        assert brute_force_probability(
            dnf, registry
        ) == pytest.approx(brute_force_probability(reduced, registry))


class TestRestrict:
    def test_restrict_drops_inconsistent_and_strips(self):
        # Φ = x∧y ∨ ¬x∧z ∨ v
        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": False, "z": True}, {"v": True}]
        )
        positive = dnf.restrict("x", True)
        assert positive == DNF.from_sets([{"y": True}, {"v": True}])
        negative = dnf.restrict("x", False)
        assert negative == DNF.from_sets([{"z": True}, {"v": True}])

    def test_restrict_to_empty(self):
        dnf = DNF.from_sets([{"x": True}])
        assert dnf.restrict("x", False).is_false()

    def test_restrict_can_produce_true(self):
        dnf = DNF.from_sets([{"x": True}])
        assert dnf.restrict("x", True).is_true()


class TestOperations:
    def test_union(self):
        left = DNF.from_sets([{"x": True}])
        right = DNF.from_sets([{"y": True}])
        assert len(left.union(right)) == 2

    def test_conjoin_distributes(self):
        left = DNF.from_sets([{"x": True}, {"y": True}])
        right = DNF.from_sets([{"z": True}])
        result = left.conjoin(right)
        assert result == DNF.from_sets(
            [{"x": True, "z": True}, {"y": True, "z": True}]
        )

    def test_conjoin_drops_inconsistent_products(self):
        left = DNF.from_sets([{"x": True}])
        right = DNF.from_sets([{"x": False}])
        assert left.conjoin(right).is_false()

    def test_conjoin_with_true_identity(self):
        dnf = DNF.from_sets([{"x": True}])
        assert dnf.conjoin(DNF.true()) == dnf

    def test_evaluate(self):
        dnf = DNF.from_sets([{"x": True, "y": True}, {"z": True}])
        assert dnf.evaluate({"x": True, "y": True, "z": False})
        assert dnf.evaluate({"x": False, "y": False, "z": True})
        assert not dnf.evaluate({"x": True, "y": False, "z": False})


class TestIntrospection:
    def test_sole_clause(self):
        dnf = DNF.from_sets([{"x": True}])
        assert dnf.sole_clause() == Clause({"x": True})
        with pytest.raises(ValueError):
            DNF.from_sets([{"x": True}, {"y": True}]).sole_clause()

    def test_variable_frequencies(self):
        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": True, "z": True}, {"z": False}]
        )
        freqs = dnf.variable_frequencies()
        assert freqs == {"x": 2, "y": 1, "z": 2}

    def test_most_frequent_variable(self):
        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": True, "z": True}]
        )
        assert dnf.most_frequent_variable() == "x"

    def test_most_frequent_on_empty_raises(self):
        with pytest.raises(ValueError):
            DNF.true().most_frequent_variable()

    def test_sorted_clauses_deterministic(self):
        dnf = DNF.from_sets([{"b": True}, {"a": True}])
        # Interned representation: the deterministic order is by atom-id
        # tuple, independent of clause insertion order.
        other = DNF.from_sets([{"a": True}, {"b": True}])
        assert dnf.sorted_clauses() == other.sorted_clauses()
        assert set(dnf.sorted_clauses()) == set(dnf.clauses)
        assert dnf.sorted_clauses() == sorted(
            dnf.clauses, key=lambda clause: clause.atom_ids
        )

    def test_marginal_probabilities(self, registry):
        dnf = DNF.from_sets([{"x": True}, {"v": True}])
        marginals = dict(dnf.marginal_probabilities(registry))
        assert marginals[Clause({"x": True})] == pytest.approx(0.3)
        assert marginals[Clause({"v": True})] == pytest.approx(0.8)

    def test_equality_and_hash(self):
        left = DNF.from_sets([{"x": True}, {"y": True}])
        right = DNF.from_sets([{"y": True}, {"x": True}])
        assert left == right
        assert hash(left) == hash(right)


class TestConstantTimeChecks:
    """``is_true`` is a hash probe and ``variable_id_frequencies`` is
    counted once per DNF; both must agree with the plain definitions."""

    def test_is_true_on_true_constant(self):
        assert DNF.true().is_true()
        assert not DNF.false().is_true()

    def test_is_true_after_union_with_empty_clause(self):
        dnf = DNF.from_sets([{"x": True}, {"y": False}])
        assert not dnf.is_true()
        assert dnf.union(DNF.true()).is_true()
        assert DNF.true().union(dnf).is_true()

    def test_is_true_after_restrict_empties_a_clause(self):
        dnf = DNF.from_sets([{"x": True}, {"y": True, "z": True}])
        assert dnf.restrict("x", True).is_true()
        assert not dnf.restrict("x", False).is_true()

    @pytest.mark.parametrize("seed", range(40))
    def test_is_true_matches_clause_scan(self, seed):
        rng = random.Random(seed)
        names = ["x", "y", "z", "v"]
        clauses = []
        for _ in range(rng.randint(0, 5)):
            picked = rng.sample(names, rng.randint(0, 3))
            clauses.append(Clause({name: rng.random() < 0.5
                                   for name in picked}))
        dnf = DNF(clauses)
        for candidate in (dnf, dnf.restrict("x", True),
                          dnf.restrict("y", False), dnf.remove_subsumed()):
            assert candidate.is_true() == any(
                clause.is_empty() for clause in candidate
            )

    def test_frequencies_are_a_fresh_copy(self):
        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": True, "z": True}, {"z": False}]
        )
        first = dnf.variable_id_frequencies()
        expected = dict(first)
        first.clear()
        first[-1] = 99
        assert dnf.variable_id_frequencies() == expected
        assert dnf.variable_frequencies() == {"x": 2, "y": 1, "z": 2}
