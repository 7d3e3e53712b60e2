"""Property-based tests (hypothesis) for core invariants.

Strategy: random Boolean probability spaces and positive/negative DNFs
over them; every algorithmic component must respect its contract against
brute-force possible-worlds semantics.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.approx import RELATIVE, approximate_probability
from repro.core.bounds import independent_bounds
from repro.core.compiler import compile_dnf
from repro.core.decompositions import (
    ShannonBranch,
    independent_and_factorization,
    independent_or_partition,
    shannon_expansion,
)
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.exact import exact_probability
from repro.core.readonce import try_read_once
from repro.core.semantics import (
    brute_force_probability,
    equivalent_on_registry,
)
from repro.core.variables import VariableRegistry

VARIABLES = [f"v{i}" for i in range(7)]


@st.composite
def instances(draw, max_clauses=8):
    """A (DNF, registry) pair over up to 7 Boolean variables."""
    probabilities = {
        name: draw(
            st.floats(
                min_value=0.02,
                max_value=0.98,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        for name in VARIABLES
    }
    registry = VariableRegistry.from_boolean_probabilities(probabilities)
    clause_count = draw(st.integers(min_value=1, max_value=max_clauses))
    clauses = []
    for _ in range(clause_count):
        size = draw(st.integers(min_value=1, max_value=4))
        variables = draw(
            st.lists(
                st.sampled_from(VARIABLES),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        polarities = draw(
            st.lists(
                st.booleans(), min_size=len(variables), max_size=len(variables)
            )
        )
        clauses.append(Clause(dict(zip(variables, polarities))))
    return DNF(clauses), registry


@st.composite
def products(draw):
    """A (Φ, registry, factors) triple: Φ is the conjunction of 2–3
    variable-disjoint, subsumption-free DNFs of 1–3 clauses each.

    Single-clause factors put their variables in every clause of Φ —
    the case the ⊙ divisibility test must let through.  With at most
    three clauses per factor, any two non-constant columns of one
    factor are coupled, so the ⊙ search is complete on these inputs and
    must find a factorization.
    """
    factors = []
    for index in range(draw(st.integers(min_value=2, max_value=3))):
        names = [f"p{index}_{i}" for i in range(3)]
        clauses = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            variables = draw(
                st.lists(
                    st.sampled_from(names), min_size=1, max_size=3,
                    unique=True,
                )
            )
            polarities = draw(
                st.lists(
                    st.booleans(),
                    min_size=len(variables),
                    max_size=len(variables),
                )
            )
            clauses.append(Clause(dict(zip(variables, polarities))))
        factors.append(DNF(clauses).remove_subsumed())
    product = factors[0]
    for factor in factors[1:]:
        product = product.conjoin(factor)
    registry = VariableRegistry.from_boolean_probabilities(
        {name: 0.5 for name in product.variables}
    )
    return product, registry, factors


#: Multi-valued variables next to the Boolean ones: a 3-valued and a
#: 4-valued domain, so Shannon pivots with ≥3 branches occur.
MULTI_DOMAINS = {"m3": (0, 1, 2), "m4": ("a", "b", "c", "d")}


@st.composite
def reduced_instances(draw, max_clauses=8):
    """A subsumption-free (DNF, registry) pair mixing Boolean and
    multi-valued variables — the inputs a d-tree Shannon-expands."""
    registry = VariableRegistry()
    domains = {name: (True, False) for name in VARIABLES[:5]}
    domains.update(MULTI_DOMAINS)
    for name, domain in domains.items():
        weights = [
            draw(st.floats(min_value=0.05, max_value=1.0)) for _ in domain
        ]
        total = sum(weights)
        registry.add_variable(
            name, {value: weight / total for value, weight in zip(domain, weights)}
        )
    clauses = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_clauses))):
        names = draw(
            st.lists(
                st.sampled_from(sorted(domains)),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        clauses.append(
            Clause({name: draw(st.sampled_from(domains[name]))
                    for name in names})
        )
    return DNF(clauses).remove_subsumed(), registry


def _mark_is_sound(branch):
    """The ``reduced`` contract: a marked cofactor is subsumption-free."""
    return (
        not branch.reduced
        or branch.cofactor.remove_subsumed() == branch.cofactor
    )


COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSubsumption:
    @given(instances())
    @settings(**COMMON)
    def test_preserves_semantics(self, pair):
        dnf, registry = pair
        reduced = dnf.remove_subsumed()
        assert equivalent_on_registry(dnf, reduced, registry)

    @given(instances())
    @settings(**COMMON)
    def test_result_is_antichain(self, pair):
        dnf, _registry = pair
        reduced = dnf.remove_subsumed()
        clauses = list(reduced.clauses)
        for i, left in enumerate(clauses):
            for j, right in enumerate(clauses):
                if i != j:
                    assert not left.subsumes(right)


class TestDecompositions:
    @given(instances())
    @settings(**COMMON)
    def test_or_partition_is_exact_cover(self, pair):
        dnf, _registry = pair
        parts = independent_or_partition(dnf)
        rebuilt = DNF(c for part in parts for c in part.clauses)
        assert rebuilt == dnf
        seen = set()
        for part in parts:
            assert not (part.variables & seen)
            seen |= part.variables

    @given(instances())
    @settings(**COMMON)
    def test_and_factorization_semantics(self, pair):
        dnf, registry = pair
        factors = independent_and_factorization(dnf.remove_subsumed())
        if factors is None:
            return
        rebuilt = factors[0]
        for factor in factors[1:]:
            rebuilt = rebuilt.conjoin(factor)
        assert equivalent_on_registry(
            dnf.remove_subsumed(), rebuilt, registry
        )

    @given(products())
    @settings(**COMMON)
    def test_and_factorization_finds_products(self, triple):
        dnf, registry, generators = triple
        assume(len(dnf) >= 2)  # a single clause is a leaf, never ⊙-split
        factors = independent_and_factorization(dnf)
        assert factors is not None
        assert len(factors) >= len(generators)
        seen = set()
        for factor in factors:
            assert not (factor.variables & seen)
            seen |= factor.variables
        rebuilt = factors[0]
        for factor in factors[1:]:
            rebuilt = rebuilt.conjoin(factor)
        assert equivalent_on_registry(dnf, rebuilt, registry)

    @given(instances())
    @settings(**COMMON)
    def test_shannon_partitions_probability(self, pair):
        dnf, registry = pair
        if not dnf.variables:
            return
        pivot = dnf.most_frequent_variable()
        total = sum(
            branch.probability
            * brute_force_probability(branch.cofactor, registry)
            for branch in shannon_expansion(dnf, pivot, registry)
        )
        assert math.isclose(
            total, brute_force_probability(dnf, registry), abs_tol=1e-9
        )


class TestShannonReducedMark:
    @given(reduced_instances(), st.data())
    @settings(**COMMON)
    def test_marked_cofactors_are_subsumption_free(self, pair, data):
        dnf, registry = pair
        assume(dnf.variables)
        pivot = data.draw(st.sampled_from(sorted(dnf.variables)))
        for branch in shannon_expansion(dnf, pivot, registry):
            assert _mark_is_sound(branch)
            # The mark is exact on reduced inputs: an unmarked cofactor
            # really does lose a clause to subsumption.
            assert branch.reduced == (
                branch.cofactor.remove_subsumed() == branch.cofactor
            )
            assert branch.cofactor == dnf.restrict(pivot, branch.value)

    def test_multivalued_pivot_marks_each_branch(self):
        registry = VariableRegistry()
        registry.add_variable("m3", {0: 0.2, 1: 0.3, 2: 0.5})
        for name in ("v0", "v1", "v2"):
            registry.add_boolean(name, 0.5)
        dnf = DNF.from_sets(
            [{"m3": 0, "v0": True}, {"m3": 1, "v1": True},
             {"m3": 2, "v0": True, "v2": True}, {"v1": True, "v2": True}]
        )
        assert dnf.remove_subsumed() == dnf
        branches = shannon_expansion(dnf, "m3", registry)
        assert [branch.value for branch in branches] == [0, 1, 2]
        assert all(_mark_is_sound(branch) for branch in branches)
        # Only m3=1 strips a clause, {v1}, that lies inside the unchanged
        # {v1, v2}.
        assert [branch.reduced for branch in branches] == [
            True, False, True
        ]

    def test_stripped_clause_inside_unchanged_one_is_not_marked(self):
        # {x, a} ∨ {a, b} split on x: x=True strips {x, a} to {a}, which
        # lies inside the unchanged {a, b}.
        registry = VariableRegistry.from_boolean_probabilities(
            {name: 0.5 for name in ("x", "a", "b")}
        )
        dnf = DNF.from_sets(
            [{"x": True, "a": True}, {"a": True, "b": True}]
        )
        assert dnf.remove_subsumed() == dnf
        by_value = {
            branch.value: branch
            for branch in shannon_expansion(dnf, "x", registry)
        }
        positive = by_value[True]
        assert not positive.reduced
        assert positive.cofactor.remove_subsumed() != positive.cofactor
        assert by_value[False].reduced  # no stripped clause at all
        # Mutation check: forcing the mark must break the property.
        forced = ShannonBranch(
            positive.variable,
            positive.value,
            positive.probability,
            positive.cofactor,
            reduced=True,
        )
        assert _mark_is_sound(positive)
        assert not _mark_is_sound(forced)


class TestBoundsProperty:
    @given(instances())
    @settings(**COMMON)
    def test_prop_5_1(self, pair):
        dnf, registry = pair
        truth = brute_force_probability(dnf, registry)
        for sort in (True, False):
            lower, upper = independent_bounds(
                dnf, registry, sort_by_probability=sort
            )
            assert lower - 1e-9 <= truth <= upper + 1e-9

    @given(instances())
    @settings(**COMMON)
    def test_read_once_extension_never_looser(self, pair):
        dnf, registry = pair
        truth = brute_force_probability(dnf, registry)
        lower, upper = independent_bounds(
            dnf, registry, allow_read_once_buckets=True
        )
        assert lower - 1e-9 <= truth <= upper + 1e-9


class TestExactness:
    @given(instances())
    @settings(**COMMON)
    def test_compiled_tree_probability(self, pair):
        dnf, registry = pair
        tree = compile_dnf(dnf, registry)
        assert tree.is_complete()
        assert math.isclose(
            tree.probability(registry),
            brute_force_probability(dnf, registry),
            abs_tol=1e-9,
        )

    @given(instances())
    @settings(**COMMON)
    def test_incremental_epsilon_zero(self, pair):
        dnf, registry = pair
        assert math.isclose(
            exact_probability(dnf, registry),
            brute_force_probability(dnf, registry),
            abs_tol=1e-9,
        )

    @given(instances())
    @settings(**COMMON)
    def test_read_once_agrees(self, pair):
        dnf, registry = pair
        formula = try_read_once(dnf)
        if formula is None:
            return
        assert math.isclose(
            formula.probability(registry),
            brute_force_probability(dnf, registry),
            abs_tol=1e-9,
        )


class TestApproximationProperty:
    @given(instances(), st.floats(min_value=0.005, max_value=0.3))
    @settings(**COMMON)
    def test_absolute_guarantee(self, pair, epsilon):
        dnf, registry = pair
        truth = brute_force_probability(dnf, registry)
        result = approximate_probability(dnf, registry, epsilon=epsilon)
        assert result.converged
        assert abs(result.estimate - truth) <= epsilon + 1e-9
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9

    @given(instances(), st.floats(min_value=0.01, max_value=0.4))
    @settings(**COMMON)
    def test_relative_guarantee(self, pair, epsilon):
        dnf, registry = pair
        truth = brute_force_probability(dnf, registry)
        result = approximate_probability(
            dnf, registry, epsilon=epsilon, error_kind=RELATIVE
        )
        assert result.converged
        assert (1 - epsilon) * truth - 1e-9 <= result.estimate
        assert result.estimate <= (1 + epsilon) * truth + 1e-9

    @given(instances(), st.integers(min_value=0, max_value=20))
    @settings(**COMMON)
    def test_anytime_bounds_always_sound(self, pair, budget):
        dnf, registry = pair
        truth = brute_force_probability(dnf, registry)
        result = approximate_probability(
            dnf, registry, epsilon=0.0, max_steps=budget
        )
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9
