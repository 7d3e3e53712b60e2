"""Unit tests for the lineage formula AST (repro.core.formulas)."""

import random

import pytest

from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.formulas import (
    FALSE,
    TRUE,
    AndNode,
    AtomNode,
    FalseNode,
    OrNode,
    TrueNode,
    atom,
    conj,
    disj,
)
from repro.core.semantics import brute_force_formula_probability
from repro.core.variables import VariableRegistry


@pytest.fixture
def registry():
    return VariableRegistry.from_boolean_probabilities(
        {"x": 0.3, "y": 0.2, "z": 0.7, "u": 0.5, "v": 0.8}
    )


class TestConstants:
    def test_true_dnf(self):
        assert TRUE.to_dnf().is_true()
        assert TRUE.evaluate({})

    def test_false_dnf(self):
        assert FALSE.to_dnf().is_false()
        assert not FALSE.evaluate({})

    def test_constant_folding(self):
        assert conj(atom("x"), FALSE) is FALSE
        assert disj(atom("x"), TRUE) is TRUE
        assert conj(TRUE, TRUE) is TRUE
        assert disj(FALSE, FALSE) is FALSE

    def test_true_dropped_in_conj(self):
        result = conj(TRUE, atom("x"))
        assert result == atom("x")

    def test_false_dropped_in_disj(self):
        result = disj(FALSE, atom("x"))
        assert result == atom("x")


class TestSmartConstructors:
    def test_flattening_conj(self):
        nested = conj(conj(atom("x"), atom("y")), atom("z"))
        assert isinstance(nested, AndNode)
        assert len(nested.children) == 3

    def test_flattening_disj(self):
        nested = disj(disj(atom("x"), atom("y")), atom("z"))
        assert isinstance(nested, OrNode)
        assert len(nested.children) == 3

    def test_single_child_unwrapped(self):
        assert conj(atom("x")) == atom("x")
        assert disj(atom("x")) == atom("x")

    def test_operator_overloads(self):
        combined = atom("x") & atom("y") | atom("z")
        assert isinstance(combined, OrNode)

    def test_atom_shorthand(self):
        node = atom("u", 3)
        assert node.atom.variable == "u"
        assert node.atom.value == 3


class TestToDNF:
    def test_atom(self):
        assert atom("x").to_dnf() == DNF.from_sets([{"x": True}])

    def test_and_distributes_over_or(self):
        # (x ∨ y) ∧ z  →  xz ∨ yz
        formula = conj(disj(atom("x"), atom("y")), atom("z"))
        assert formula.to_dnf() == DNF.from_sets(
            [{"x": True, "z": True}, {"y": True, "z": True}]
        )

    def test_inconsistent_branches_dropped(self):
        formula = conj(atom("x", True), atom("x", False))
        assert formula.to_dnf().is_false()

    def test_example_4_1_structure(self, registry):
        # (x ∨ y) ∧ ((z ∧ u) ∨ (¬z ∧ v)) from Example 4.1
        formula = conj(
            disj(atom("x"), atom("y")),
            disj(
                conj(atom("z", True), atom("u")),
                conj(atom("z", False), atom("v")),
            ),
        )
        dnf = formula.to_dnf()
        assert len(dnf) == 4
        p = brute_force_formula_probability(formula, registry)
        # P = (1-(1-P(x))(1-P(y))) * (P(z)P(u) + P(¬z)P(v))
        expected = (1 - 0.7 * 0.8) * (0.7 * 0.5 + 0.3 * 0.8)
        assert p == pytest.approx(expected)


def fold_to_dnf(formula):
    """The reference conversion: ``∧`` folds ``DNF.conjoin`` over the
    children (stopping at false), ``∨`` folds ``DNF.union``."""
    if isinstance(formula, TrueNode):
        return DNF.true()
    if isinstance(formula, FalseNode):
        return DNF.false()
    if isinstance(formula, AtomNode):
        return DNF((Clause((formula.atom,)),))
    if isinstance(formula, AndNode):
        result = DNF.true()
        for child in formula.children:
            result = result.conjoin(fold_to_dnf(child))
            if result.is_false():
                break
        return result
    result = DNF.false()
    for child in formula.children:
        result = result.union(fold_to_dnf(child))
    return result


def clause_items(dnf):
    """Clauses with their bindings in insertion order, for an exact
    comparison beyond set equality."""
    return [list(clause.items()) for clause in dnf.sorted_clauses()]


def random_formula(rng, depth):
    # Non-Boolean values are strings: the intern table is process-wide,
    # and ``1 == True`` would alias this module's atoms with others'.
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if roll < 0.03:
            return rng.choice([TRUE, FALSE])
        return atom(rng.choice("xyz"), rng.choice([True, "one", "two"]))
    children = [
        random_formula(rng, depth - 1) for _ in range(rng.randint(1, 4))
    ]
    return (AndNode if rng.random() < 0.5 else OrNode)(children)


class TestToDNFMatchesFold:
    @pytest.mark.parametrize(
        "formula",
        [
            AndNode([atom("x", "one"), atom("x", "two")]),
            AndNode([atom("x", "one"), atom("y"), atom("x", "two")]),
            AndNode([atom("x"), atom("x"), atom("y")]),
            AndNode([atom("y"), atom("x"), atom("y")]),
            AndNode([atom("x"), TRUE]),
            AndNode([atom("x"), FALSE]),
            AndNode([]),
            OrNode([FALSE, atom("x")]),
            OrNode([TRUE, atom("x")]),
            OrNode([atom("x"), atom("x"), AndNode([atom("x"), atom("y")])]),
            OrNode(
                [
                    AndNode([atom("x"), atom("y")]),
                    OrNode([atom("z"), AndNode([atom("x", "one"), atom("x", "two")])]),
                    AndNode([OrNode([atom("x"), atom("y")]), atom("z")]),
                ]
            ),
        ],
        ids=repr,
    )
    def test_cases(self, formula):
        expected = fold_to_dnf(formula)
        assert formula.to_dnf() == expected
        assert clause_items(formula.to_dnf()) == clause_items(expected)

    def test_conflicting_atoms_are_false(self):
        assert AndNode([atom("x", "one"), atom("x", "two")]).to_dnf().is_false()

    def test_random_nested_formulas(self):
        rng = random.Random(7)
        for _ in range(300):
            formula = random_formula(rng, 3)
            expected = fold_to_dnf(formula)
            actual = formula.to_dnf()
            assert actual == expected, formula
            assert clause_items(actual) == clause_items(expected)


class TestEvaluation:
    def test_evaluate_matches_dnf(self, registry):
        formula = disj(
            conj(atom("x"), atom("y")),
            conj(atom("z", False), atom("v")),
        )
        dnf = formula.to_dnf()
        for world, _prob in __import__(
            "repro.core.semantics", fromlist=["enumerate_worlds"]
        ).enumerate_worlds(registry, sorted(formula.variables(), key=repr)):
            assert formula.evaluate(world) == dnf.evaluate(world)

    def test_variables_collects_all(self):
        formula = conj(atom("x"), disj(atom("y"), atom("z")))
        assert formula.variables() == frozenset({"x", "y", "z"})

    def test_probability_exact_convenience(self, registry):
        formula = disj(atom("x"), atom("y"))
        expected = 1 - 0.7 * 0.8
        assert formula.probability_exact(registry) == pytest.approx(expected)


class TestEqualityHash:
    def test_atom_nodes(self):
        assert atom("x") == atom("x")
        assert hash(atom("x")) == hash(atom("x"))
        assert atom("x") != atom("y")

    def test_nary_nodes(self):
        assert conj(atom("x"), atom("y")) == conj(atom("x"), atom("y"))
        assert conj(atom("x"), atom("y")) != disj(atom("x"), atom("y"))

    def test_immutability(self):
        node = atom("x")
        with pytest.raises(AttributeError):
            node.atom = None
