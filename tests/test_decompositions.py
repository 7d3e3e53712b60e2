"""Unit tests for the three d-tree decompositions."""

import random

import pytest

from repro.core.decompositions import (
    _UnionFind,
    independent_and_factorization,
    independent_or_partition,
    shannon_expansion,
)
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import equivalent_on_registry
from repro.core.variables import VariableRegistry, variable_repr


@pytest.fixture
def registry():
    return VariableRegistry.from_boolean_probabilities(
        {name: 0.5 for name in "abcdexyzuvw"}
    )


class TestIndependentOr:
    def test_splits_disconnected_components(self):
        dnf = DNF.from_sets(
            [{"a": True, "b": True}, {"x": True}, {"b": False}]
        )
        parts = independent_or_partition(dnf)
        assert len(parts) == 2
        variable_sets = sorted(
            sorted(part.variables) for part in parts
        )
        assert variable_sets == [["a", "b"], ["x"]]

    def test_connected_stays_single(self):
        dnf = DNF.from_sets(
            [{"a": True, "b": True}, {"b": True, "c": True}]
        )
        assert len(independent_or_partition(dnf)) == 1

    def test_union_of_parts_is_input(self):
        dnf = DNF.from_sets(
            [{"a": True}, {"b": True}, {"c": True, "d": True}]
        )
        parts = independent_or_partition(dnf)
        rebuilt = DNF(
            clause for part in parts for clause in part.clauses
        )
        assert rebuilt == dnf

    def test_parts_are_variable_disjoint(self):
        dnf = DNF.from_sets(
            [{"a": True}, {"b": True, "c": True}, {"x": True, "y": True}]
        )
        parts = independent_or_partition(dnf)
        seen = set()
        for part in parts:
            assert not (part.variables & seen)
            seen |= part.variables

    def test_transitive_connection(self):
        # a-b, b-c, c-d chains one component.
        dnf = DNF.from_sets(
            [
                {"a": True, "b": True},
                {"b": True, "c": True},
                {"c": True, "d": True},
            ]
        )
        assert len(independent_or_partition(dnf)) == 1

    def test_semantic_equivalence(self, registry):
        dnf = DNF.from_sets(
            [{"a": True, "b": True}, {"x": True}, {"y": False, "z": True}]
        )
        parts = independent_or_partition(dnf)
        rebuilt = DNF(
            clause for part in parts for clause in part.clauses
        )
        assert equivalent_on_registry(dnf, rebuilt, registry)



def _union_find_partition(dnf):
    """Test-only reference ⊗: the union-find partition without the
    connectivity sweep (components ordered by ``variable_repr`` of
    their root, the empty clause last)."""
    uf = _UnionFind()
    for clause in dnf:
        vids = clause.variable_ids
        if len(vids) < 2:
            continue
        vid_iter = iter(vids)
        first = next(vid_iter)
        for vid in vid_iter:
            uf.union(first, vid)
    groups, empties = {}, []
    for clause in dnf.sorted_clauses():
        vids = clause.variable_ids
        if not vids:
            empties.append(clause)
            continue
        root = uf.find(next(iter(vids)))
        groups.setdefault(root, []).append(clause)
    components = [
        DNF(clauses)
        for _root, clauses in sorted(
            groups.items(), key=lambda item: variable_repr(item[0])
        )
    ]
    if empties:
        components.append(DNF(empties))
    return components


class TestIndependentOrFastPath:
    """The connectivity sweep changes nothing but the cost: the same
    components in the same order as the union-find, and the input object
    itself when it is connected."""

    @staticmethod
    def _check(dnf):
        parts = independent_or_partition(dnf)
        assert parts == _union_find_partition(dnf)
        if len(parts) == 1:
            assert parts[0] is dnf
        return parts

    @pytest.mark.parametrize("seed", range(80))
    def test_random_dnfs_match_union_find(self, seed):
        rng = random.Random(seed)
        names = [f"c{index}" for index in range(rng.randint(1, 9))]
        clauses = []
        for _ in range(rng.randint(1, 8)):
            picked = rng.sample(names, rng.randint(0, min(3, len(names))))
            clauses.append(
                Clause({name: rng.random() < 0.7 for name in picked})
            )
        self._check(DNF(clauses))

    def test_connected_input_is_returned_itself(self):
        dnf = DNF.from_sets(
            [{"a": True, "b": True}, {"c": True, "d": True},
             {"b": True, "c": False}]
        )
        assert self._check(dnf) == [dnf]

    def test_empty_clause_is_its_own_component(self):
        dnf = DNF.from_sets([{"a": True, "b": True}, {}])
        assert self._check(dnf) == [
            DNF.from_sets([{"a": True, "b": True}]),
            DNF.true(),
        ]
        true = DNF.true()
        assert self._check(true)[0] is true

    def test_false_has_no_component(self):
        assert self._check(DNF.false()) == []

    def test_single_variable_is_connected(self):
        one = DNF.from_sets([{"a": True}])
        both = DNF.from_sets([{"a": True}, {"a": False}])
        assert self._check(one) == [one]
        assert self._check(both) == [both]

    def test_all_singletons_split_in_repr_order(self):
        dnf = DNF.from_sets([{"c": True}, {"a": True}, {"b": False}])
        parts = self._check(dnf)
        assert [sorted(part.variables) for part in parts] == [
            ["a"], ["b"], ["c"]
        ]

class TestIndependentAnd:
    def test_simple_product(self):
        # (a ∨ b) ∧ (x ∨ y) expanded: ax, ay, bx, by
        dnf = DNF.from_sets(
            [
                {"a": True, "x": True},
                {"a": True, "y": True},
                {"b": True, "x": True},
                {"b": True, "y": True},
            ]
        )
        factors = independent_and_factorization(dnf)
        assert factors is not None
        assert len(factors) == 2
        variable_sets = sorted(sorted(f.variables) for f in factors)
        assert variable_sets == [["a", "b"], ["x", "y"]]

    def test_factor_of_clause_and_disjunction(self):
        # x ∧ (y ∨ z) expanded: xy, xz
        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": True, "z": True}]
        )
        factors = independent_and_factorization(dnf)
        assert factors is not None
        variable_sets = sorted(sorted(f.variables) for f in factors)
        assert variable_sets == [["x"], ["y", "z"]]

    def test_non_product_returns_none(self):
        # xy ∨ yz ∨ xz is connected but not a product.
        dnf = DNF.from_sets(
            [
                {"x": True, "y": True},
                {"y": True, "z": True},
                {"x": True, "z": True},
            ]
        )
        assert independent_and_factorization(dnf) is None

    def test_single_clause_returns_none(self):
        dnf = DNF.from_sets([{"x": True, "y": True}])
        assert independent_and_factorization(dnf) is None

    def test_three_way_product(self):
        import itertools

        # (a∨b) ∧ (x∨y) ∧ (u∨v): 8 clauses
        dnf = DNF.from_sets(
            [
                {p: True, q: True, r: True}
                for p, q, r in itertools.product("ab", "xy", "uv")
            ]
        )
        factors = independent_and_factorization(dnf)
        assert factors is not None
        assert len(factors) == 3

    def test_factor_semantics(self, registry):
        dnf = DNF.from_sets(
            [
                {"a": True, "x": True},
                {"a": True, "y": True},
                {"b": True, "x": True},
                {"b": True, "y": True},
            ]
        )
        factors = independent_and_factorization(dnf)
        rebuilt = factors[0]
        for factor in factors[1:]:
            rebuilt = rebuilt.conjoin(factor)
        assert equivalent_on_registry(dnf, rebuilt, registry)

    def test_partial_product_rejected(self):
        # Product of (a∨b)×(x∨y) minus one clause: not a product.
        dnf = DNF.from_sets(
            [
                {"a": True, "x": True},
                {"a": True, "y": True},
                {"b": True, "x": True},
            ]
        )
        assert independent_and_factorization(dnf) is None


class TestShannon:
    def test_boolean_expansion(self, registry):
        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": False, "z": True}, {"w": True}]
        )
        branches = shannon_expansion(dnf, "x", registry)
        assert len(branches) == 2
        by_value = {branch.value: branch for branch in branches}
        assert by_value[True].cofactor == DNF.from_sets(
            [{"y": True}, {"w": True}]
        )
        assert by_value[False].cofactor == DNF.from_sets(
            [{"z": True}, {"w": True}]
        )
        assert by_value[True].probability == pytest.approx(0.5)

    def test_empty_cofactors_skipped(self, registry):
        dnf = DNF.from_sets([{"x": True, "y": True}])
        branches = shannon_expansion(dnf, "x", registry)
        assert len(branches) == 1
        assert branches[0].value is True

    def test_multivalued_expansion(self):
        reg = VariableRegistry()
        reg.add_variable("u", {1: 0.5, 2: 0.2, 3: 0.3})
        reg.add_boolean("y", 0.5)
        dnf = DNF.from_sets([{"u": 1, "y": True}, {"u": 2}])
        branches = shannon_expansion(dnf, "u", reg)
        values = {branch.value for branch in branches}
        assert values == {1, 2}  # u=3 branch is empty and skipped

    def test_unknown_variable_raises(self, registry):
        dnf = DNF.from_sets([{"x": True}])
        with pytest.raises(ValueError, match="does not occur"):
            shannon_expansion(dnf, "nope", registry)

    def test_expansion_preserves_probability(self, registry):
        from repro.core.semantics import brute_force_probability

        dnf = DNF.from_sets(
            [{"x": True, "y": True}, {"x": False, "z": True}, {"y": False}]
        )
        branches = shannon_expansion(dnf, "x", registry)
        total = sum(
            branch.probability
            * brute_force_probability(branch.cofactor, registry)
            for branch in branches
        )
        assert total == pytest.approx(
            brute_force_probability(dnf, registry)
        )
