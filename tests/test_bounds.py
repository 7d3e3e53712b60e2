"""Unit tests for the Fig. 3 `Independent` bounds heuristic."""

import random

import pytest

from repro.core.bounds import bucket_partition, independent_bounds
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry


@pytest.fixture
def example_5_2_registry():
    return VariableRegistry.from_boolean_probabilities(
        {"x": 0.3, "y": 0.2, "z": 0.7, "v": 0.8}
    )


@pytest.fixture
def example_5_2_dnf():
    # Φ = (x∧y) ∨ (x∧z) ∨ v
    return DNF.from_sets(
        [{"x": True, "y": True}, {"x": True, "z": True}, {"v": True}]
    )


class TestExample52:
    """The worked numbers of Example 5.2 of the paper."""

    def test_unsorted_partitioning(self, example_5_2_dnf, example_5_2_registry):
        # Without the probability sort the paper obtains B1 = c1 ∨ c3,
        # B2 = c2 with bounds [0.812, 1.0] — our first-fit over the
        # deterministic clause order reproduces exactly that.
        lower, upper = independent_bounds(
            example_5_2_dnf, example_5_2_registry, sort_by_probability=False
        )
        assert lower == pytest.approx(0.812)
        assert upper == pytest.approx(1.0)

    def test_sorted_partitioning_lower_bound(
        self, example_5_2_dnf, example_5_2_registry
    ):
        # Sorting descending by marginal probability yields B1 = c3 ∨ c2
        # with P(B1) = 1-(1-0.8)(1-0.21) = 0.842 (the paper's improved
        # lower bound).  NOTE: the paper's Example 5.2 then states the
        # upper bound 0.848, which is inconsistent with its own Fig. 3
        # formula (0.842 + P(B2) = 0.842 + 0.06 = 0.902); we follow the
        # algorithm, not the typo.
        lower, upper = independent_bounds(
            example_5_2_dnf, example_5_2_registry, sort_by_probability=True
        )
        assert lower == pytest.approx(0.842)
        assert upper == pytest.approx(0.902)

    def test_exact_probability_in_bounds(
        self, example_5_2_dnf, example_5_2_registry
    ):
        truth = brute_force_probability(
            example_5_2_dnf, example_5_2_registry
        )
        assert truth == pytest.approx(0.8456)
        for sort in (True, False):
            lower, upper = independent_bounds(
                example_5_2_dnf,
                example_5_2_registry,
                sort_by_probability=sort,
            )
            assert lower <= truth <= upper

    def test_read_once_extension_gives_exact_bounds(
        self, example_5_2_dnf, example_5_2_registry
    ):
        # Remark 5.3: Φ factors as x∧(y∨z) ∨ v, one occurrence form, so a
        # read-once bucket holds the whole DNF and both bounds are exact.
        lower, upper = independent_bounds(
            example_5_2_dnf,
            example_5_2_registry,
            allow_read_once_buckets=True,
        )
        assert lower == pytest.approx(0.8456)
        assert upper == pytest.approx(0.8456)


class TestBucketPartition:
    def test_buckets_pairwise_independent(self, example_5_2_registry):
        dnf = DNF.from_sets(
            [
                {"x": True, "y": True},
                {"x": True, "z": True},
                {"v": True},
                {"y": False},
            ]
        )
        partition = bucket_partition(dnf, example_5_2_registry)
        for bucket in partition.buckets:
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    assert bucket[i].independent_of(bucket[j])

    def test_all_clauses_allocated(self, example_5_2_registry):
        dnf = DNF.from_sets(
            [{"x": True}, {"y": True}, {"x": False, "z": True}]
        )
        partition = bucket_partition(dnf, example_5_2_registry)
        allocated = [
            clause for bucket in partition.buckets for clause in bucket
        ]
        assert sorted(map(repr, allocated)) == sorted(
            map(repr, dnf.clauses)
        )

    def test_single_bucket_is_exact(self, example_5_2_registry):
        # Pairwise independent clauses land in one bucket: point bounds.
        dnf = DNF.from_sets([{"x": True}, {"y": True}, {"z": True}])
        lower, upper = independent_bounds(dnf, example_5_2_registry)
        truth = brute_force_probability(dnf, example_5_2_registry)
        assert lower == pytest.approx(truth)
        assert upper == pytest.approx(truth)

    def test_bucket_probability_formula(self, example_5_2_registry):
        dnf = DNF.from_sets([{"x": True}, {"y": True}])
        partition = bucket_partition(dnf, example_5_2_registry)
        assert len(partition.buckets) == 1
        assert partition.probabilities[0] == pytest.approx(
            1 - (1 - 0.3) * (1 - 0.2)
        )


class TestSoundness:
    """Prop. 5.1 on random inputs: L ≤ P(Φ) ≤ U in every configuration."""

    @pytest.mark.parametrize("sort", [True, False])
    @pytest.mark.parametrize("read_once", [True, False])
    def test_bounds_contain_truth(self, sort, read_once):
        for trial in range(40):
            rng = random.Random(trial)
            reg = VariableRegistry.from_boolean_probabilities(
                {f"v{i}": rng.uniform(0.05, 0.95) for i in range(7)}
            )
            clauses = []
            for _ in range(rng.randint(1, 7)):
                size = rng.randint(1, 3)
                clauses.append(
                    Clause(
                        {
                            f"v{rng.randrange(7)}": rng.random() < 0.7
                            for _ in range(size)
                        }
                    )
                )
            dnf = DNF(clauses)
            truth = brute_force_probability(dnf, reg)
            lower, upper = independent_bounds(
                dnf,
                reg,
                sort_by_probability=sort,
                allow_read_once_buckets=read_once,
            )
            assert lower - 1e-12 <= truth <= upper + 1e-12

    def test_degenerate_inputs(self):
        reg = VariableRegistry()
        assert independent_bounds(DNF.false(), reg) == (0.0, 0.0)
        assert independent_bounds(DNF.true(), reg) == (1.0, 1.0)

    def test_upper_clamped_at_one(self):
        reg = VariableRegistry.from_boolean_probabilities(
            {"a": 0.9, "b": 0.9, "c": 0.9}
        )
        # Heavily overlapping clauses: sum of buckets exceeds 1.
        dnf = DNF.from_sets(
            [
                {"a": True, "b": True},
                {"b": True, "c": True},
                {"a": True, "c": True},
            ]
        )
        _lower, upper = independent_bounds(dnf, reg)
        assert upper <= 1.0


def test_leaf_bounds_see_probability_updates():
    # Leaf bounds read the registry's live atom probabilities: an
    # in-place rewrite (a probability UPDATE) or a remove + re-add must
    # show up in the very next partition, with no stale copy of the
    # window served in between.  Eight clauses: d-tree leaves have 8-47,
    # the sizes at which leaf bounds once read a cached numpy copy.
    names = [f"kw{i}" for i in range(8)]

    def ring(registry):
        dnf = DNF(
            Clause({names[i]: True, names[(i + 1) % 8]: True})
            for i in range(8)
        )
        return bucket_partition(dnf, registry), independent_bounds(
            dnf, registry
        )

    def fresh(probabilities):
        return ring(VariableRegistry.from_boolean_probabilities(
            dict(zip(names, probabilities))
        ))

    registry = VariableRegistry.from_boolean_probabilities(
        {name: 0.5 for name in names}
    )
    partition, bounds = ring(registry)
    assert partition.probabilities == [0.68359375, 0.68359375]
    registry.set_boolean("kw0", 0.9)
    partition, bounds = ring(registry)
    expected_partition, expected_bounds = fresh([0.9] + [0.5] * 7)
    assert partition.probabilities == expected_partition.probabilities
    assert partition.buckets == expected_partition.buckets
    assert bounds == expected_bounds
    assert max(partition.probabilities) > 0.68359375
    registry.remove_variable("kw1")
    registry.add_boolean("kw1", 0.2)
    partition, bounds = ring(registry)
    expected_partition, expected_bounds = fresh([0.9, 0.2] + [0.5] * 6)
    assert partition.probabilities == expected_partition.probabilities
    assert partition.buckets == expected_partition.buckets
    assert bounds == expected_bounds
