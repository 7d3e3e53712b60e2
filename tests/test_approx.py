"""Tests for the incremental ε-approximation algorithm (Section V)."""

import random

import pytest

from repro import ProbDB
from repro.core.approx import ABSOLUTE, RELATIVE, approximate_probability
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.datasets.tpch import TPCHConfig, generate_tpch
from repro.datasets.tpch_queries import make_query


def random_instance(seed, variables=8, max_clauses=10):
    rng = random.Random(seed)
    reg = VariableRegistry.from_boolean_probabilities(
        {f"v{i}": rng.uniform(0.05, 0.95) for i in range(variables)}
    )
    clauses = [
        Clause(
            {
                f"v{rng.randrange(variables)}": rng.random() < 0.7
                for _ in range(rng.randint(1, 4))
            }
        )
        for _ in range(rng.randint(1, max_clauses))
    ]
    return DNF(clauses), reg


class TestGuarantees:
    @pytest.mark.parametrize("epsilon", [0.2, 0.05, 0.01])
    def test_absolute_error_bound(self, epsilon):
        for seed in range(25):
            dnf, reg = random_instance(seed)
            truth = brute_force_probability(dnf, reg)
            result = approximate_probability(dnf, reg, epsilon=epsilon)
            assert result.converged
            assert abs(result.estimate - truth) <= epsilon + 1e-9
            assert result.lower - 1e-9 <= truth <= result.upper + 1e-9

    @pytest.mark.parametrize("epsilon", [0.3, 0.1, 0.02])
    def test_relative_error_bound(self, epsilon):
        for seed in range(25):
            dnf, reg = random_instance(seed)
            truth = brute_force_probability(dnf, reg)
            result = approximate_probability(
                dnf, reg, epsilon=epsilon, error_kind=RELATIVE
            )
            assert result.converged
            assert (1 - epsilon) * truth - 1e-9 <= result.estimate
            assert result.estimate <= (1 + epsilon) * truth + 1e-9

    def test_epsilon_zero_is_exact(self):
        for seed in range(25):
            dnf, reg = random_instance(seed)
            truth = brute_force_probability(dnf, reg)
            result = approximate_probability(dnf, reg, epsilon=0.0)
            assert result.converged
            assert result.estimate == pytest.approx(truth, abs=1e-9)
            assert result.lower == pytest.approx(result.upper, abs=1e-12)

    def test_closing_disabled_still_correct(self):
        for seed in range(15):
            dnf, reg = random_instance(seed)
            truth = brute_force_probability(dnf, reg)
            result = approximate_probability(
                dnf, reg, epsilon=0.02, allow_closing=False
            )
            assert result.converged
            assert abs(result.estimate - truth) <= 0.02 + 1e-9

    def test_unsorted_buckets_still_correct(self):
        for seed in range(15):
            dnf, reg = random_instance(seed)
            truth = brute_force_probability(dnf, reg)
            result = approximate_probability(
                dnf, reg, epsilon=0.02, sort_buckets=False
            )
            assert result.converged
            assert abs(result.estimate - truth) <= 0.02 + 1e-9

    def test_read_once_buckets_still_correct(self):
        for seed in range(15):
            dnf, reg = random_instance(seed)
            truth = brute_force_probability(dnf, reg)
            result = approximate_probability(
                dnf, reg, epsilon=0.02, read_once_buckets=True
            )
            assert result.converged
            assert abs(result.estimate - truth) <= 0.02 + 1e-9

    def test_multivalued_variables(self):
        reg = VariableRegistry()
        reg.add_variable("u", {1: 0.5, 2: 0.3, 3: 0.2})
        reg.add_variable("w", {"a": 0.6, "b": 0.4})
        reg.add_boolean("x", 0.25)
        dnf = DNF.from_sets(
            [{"u": 1, "x": True}, {"u": 2, "w": "a"}, {"w": "b"}]
        )
        truth = brute_force_probability(dnf, reg)
        result = approximate_probability(dnf, reg, epsilon=0.0)
        assert result.estimate == pytest.approx(truth)

    def test_exact_run_ends_on_a_point(self):
        # At ε = 0 the Lemma 5.11 closing rule used to close non-point
        # leaves such as [0.9999999999999999, 1.0] (the rounded
        # worst-case pair compares equal), ending one ulp wide and
        # unconverged on this TPC-H IQ 6 lineage.
        database = generate_tpch(TPCHConfig(scale_factor=0.05, seed=500016))
        with ProbDB(database) as session:
            ((_answer, dnf),) = session.query(make_query("IQ 6")).lineage()
            registry = session.engine.registry
            result = approximate_probability(dnf, registry, epsilon=0.0)
            exact = session.engine.compile_circuit(dnf).evaluate()
        assert result.converged
        assert result.lower == result.upper == result.estimate
        assert result.estimate == pytest.approx(exact, abs=1e-12)


class TestDegenerateInputs:
    def test_false(self):
        reg = VariableRegistry()
        result = approximate_probability(DNF.false(), reg, epsilon=0.1)
        assert result.converged and result.estimate == 0.0

    def test_true(self):
        reg = VariableRegistry()
        result = approximate_probability(DNF.true(), reg, epsilon=0.1)
        assert result.converged and result.estimate == 1.0

    def test_subsumption_to_true(self):
        reg = VariableRegistry.from_boolean_probabilities({"x": 0.5})
        dnf = DNF([Clause(), Clause({"x": True})])
        result = approximate_probability(dnf, reg, epsilon=0.1)
        assert result.estimate == 1.0

    def test_single_clause_immediate(self):
        reg = VariableRegistry.from_boolean_probabilities({"x": 0.3})
        dnf = DNF.from_sets([{"x": True}])
        result = approximate_probability(dnf, reg, epsilon=0.0)
        assert result.estimate == pytest.approx(0.3)
        assert result.steps == 0

    def test_invalid_epsilon(self):
        reg = VariableRegistry()
        with pytest.raises(ValueError, match="epsilon"):
            approximate_probability(DNF.true(), reg, epsilon=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            approximate_probability(DNF.true(), reg, epsilon=-0.1)

    def test_invalid_error_kind(self):
        reg = VariableRegistry()
        with pytest.raises(ValueError, match="error kind"):
            approximate_probability(
                DNF.true(), reg, epsilon=0.1, error_kind="sideways"
            )


class TestAnytimeBehaviour:
    def test_budget_exhaustion_reports_sound_bounds(self):
        dnf, reg = random_instance(3, variables=10, max_clauses=12)
        truth = brute_force_probability(dnf, reg)
        result = approximate_probability(
            dnf, reg, epsilon=0.0, max_steps=1
        )
        # With one step the bounds cannot be tight, but must stay sound.
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9
        if not result.converged:
            assert result.steps <= 1

    def test_more_budget_never_worse(self):
        dnf, reg = random_instance(7, variables=10, max_clauses=12)
        widths = []
        for budget in (0, 2, 8, 32, 128):
            result = approximate_probability(
                dnf, reg, epsilon=0.0, max_steps=budget
            )
            widths.append(result.width())
        # Width after the largest budget is no larger than after the
        # smallest (intermediate steps may fluctuate per Remark 5.6).
        assert widths[-1] <= widths[0] + 1e-12

    def test_deadline_zero_still_sound(self):
        dnf, reg = random_instance(11, variables=10, max_clauses=12)
        truth = brute_force_probability(dnf, reg)
        result = approximate_probability(
            dnf, reg, epsilon=0.001, deadline_seconds=0.0
        )
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9

    def test_deadline_expiry_mid_run_is_deterministic(self, fake_clock):
        # The deadline is checked against the fake clock, which advances
        # one second per read: a 5-second deadline expires after a fixed
        # number of checks on any machine, under any CI load.
        fake_clock.auto_advance = 1.0
        # Seed 9 needs ~20 exact steps: plenty of run left to cut short.
        dnf, reg = random_instance(9, variables=12, max_clauses=16)
        truth = brute_force_probability(dnf, reg)
        result = approximate_probability(
            dnf, reg, epsilon=0.0, deadline_seconds=5.0
        )
        assert not result.converged
        # Each loop iteration reads the clock at most twice (budget check
        # + elapsed bookkeeping), so a 5s budget at 1s/read caps the
        # decomposition strictly below any full run.
        assert result.steps <= 5
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9

    def test_deadline_not_reached_converges(self, fake_clock):
        # Same instance, same fake clock, roomy deadline: the run must
        # ignore the deadline entirely and certify the request.
        fake_clock.auto_advance = 0.001
        dnf, reg = random_instance(9, variables=12, max_clauses=16)
        truth = brute_force_probability(dnf, reg)
        result = approximate_probability(
            dnf, reg, epsilon=0.0, deadline_seconds=10_000.0
        )
        assert result.converged
        assert abs(result.estimate - truth) <= 1e-9


class TestInstrumentation:
    def test_histogram_counts_decompositions(self):
        dnf, reg = random_instance(5, variables=9, max_clauses=10)
        result = approximate_probability(dnf, reg, epsilon=0.0)
        histogram = result.node_histogram
        assert set(histogram) == {
            "independent-or",
            "independent-and",
            "exclusive-or",
        }
        assert sum(histogram.values()) <= result.steps

    def test_closing_counter(self):
        # A large disjunction of independent clauses with a loose epsilon
        # should converge immediately (single bucket, exact bounds).
        reg = VariableRegistry.from_boolean_probabilities(
            {f"v{i}": 0.3 for i in range(30)}
        )
        dnf = DNF.from_sets([{f"v{i}": True} for i in range(30)])
        result = approximate_probability(dnf, reg, epsilon=0.05)
        assert result.converged
        assert result.steps == 0  # bounds were exact before any step

    def test_repr(self):
        reg = VariableRegistry.from_boolean_probabilities({"x": 0.5})
        result = approximate_probability(
            DNF.from_sets([{"x": True}]), reg, epsilon=0.1
        )
        assert "ApproximationResult" in repr(result)

    def test_elapsed_seconds_nonnegative(self):
        dnf, reg = random_instance(2)
        result = approximate_probability(dnf, reg, epsilon=0.1)
        assert result.elapsed_seconds >= 0.0


class TestEasyHardEasy:
    """The Section VII easy-hard-easy observation, in miniature: very low
    and very high clause/variable ratios converge with little work."""

    def test_high_probability_converges_fast(self):
        reg = VariableRegistry.from_boolean_probabilities(
            {f"v{i}": 0.9 for i in range(20)}
        )
        dnf = DNF.from_sets([{f"v{i}": True} for i in range(20)])
        result = approximate_probability(
            dnf, reg, epsilon=0.01, error_kind=RELATIVE
        )
        assert result.converged
        assert result.steps <= 2

    def test_low_probability_relative_needs_work_but_converges(self):
        rng = random.Random(42)
        reg = VariableRegistry.from_boolean_probabilities(
            {f"v{i}": rng.uniform(0.005, 0.02) for i in range(12)}
        )
        clauses = [
            {f"v{i}": True, f"v{(i + 1) % 12}": True} for i in range(12)
        ]
        dnf = DNF.from_sets(clauses)
        truth = brute_force_probability(dnf, reg)
        result = approximate_probability(
            dnf, reg, epsilon=0.01, error_kind=RELATIVE
        )
        assert result.converged
        assert (1 - 0.01) * truth <= result.estimate <= (1 + 0.01) * truth
