"""ServingStats: the nearest-rank percentile and the new fleet counters.

The percentile regression (satellite): ``int(round(...))`` uses
banker's rounding, which lands on the wrong sample at exact ``.5``
ranks — p50 of four samples came back as the *third* smallest instead
of the second.  The fix is the standard nearest-rank formula
(``ceil(fraction * n)``); the property test here pins it against an
independent reference over arbitrary float lists.
"""

import asyncio
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitCache
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine
from repro.serving import (
    ASGIClient,
    CircuitStoreService,
    ServingApp,
    ServingEngine,
    ServingError,
)
from repro.serving.codec import dnf_to_json
from repro.serving.stats import ServingStats, percentile

SAMPLES = st.lists(
    st.floats(
        min_value=-1e9,
        max_value=1e9,
        allow_nan=False,
        allow_infinity=False,
    ),
    max_size=200,
)
FRACTIONS = st.floats(min_value=0.0, max_value=1.0)


def reference_nearest_rank(values, fraction):
    """Independent nearest-rank: smallest sample with at least
    ``fraction`` of the data at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


class TestPercentile:
    @settings(max_examples=200)
    @given(SAMPLES, FRACTIONS)
    def test_matches_reference(self, values, fraction):
        assert percentile(values, fraction) == reference_nearest_rank(
            values, fraction
        )

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=100,
        ),
        FRACTIONS,
    )
    def test_result_is_always_a_sample(self, values, fraction):
        assert percentile(values, fraction) in values

    @settings(max_examples=100)
    @given(SAMPLES, FRACTIONS, FRACTIONS)
    def test_monotone_in_fraction(self, values, f1, f2):
        low, high = min(f1, f2), max(f1, f2)
        assert percentile(values, low) <= percentile(values, high)

    def test_bankers_rounding_regression(self):
        # p50 of 4 samples is the 2nd smallest (rank ceil(0.5*4)=2).
        # int(round(0.5*4)) rounds half-to-even to 2 as an *index*,
        # i.e. the 3rd sample — the old formula's off-by-one.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([5.0], 0.75) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0


class TestFleetCounters:
    def test_response_hit_ratio(self):
        stats = ServingStats()
        assert stats.response_hit_ratio() == 0.0
        stats.response_misses = 3
        stats.response_hits = 1
        assert stats.response_hit_ratio() == 0.25

    def test_summary_reports_fleet_counters(self):
        stats = ServingStats()
        stats.response_hits = 4
        stats.response_misses = 4
        stats.quota_rejections = 2
        summary = stats.summary()
        assert summary["response_hits"] == 4
        assert summary["response_misses"] == 4
        assert summary["response_hit_ratio"] == 0.5
        assert summary["quota_rejections"] == 2


class TestLineageParseCounters:
    def test_repeats_hit_and_malformed_counts_neither(self, tmp_path):
        registry = VariableRegistry()
        for name in ("a", "b", "c"):
            registry.add_boolean(name, 0.4)
        lineage = DNF([Clause({"a": True, "b": True}), Clause({"c": True})])
        cache = CircuitCache()
        cache.put(lineage, ConfidenceEngine(registry).compile_circuit(lineage))
        cache.save(tmp_path / "store.bin")
        serving = ServingEngine(
            CircuitStoreService(registry, {"main": tmp_path / "store.bin"})
        )
        wire = ASGIClient(ServingApp(serving))

        async def scenario():
            for _ in range(5):
                await wire.evaluate(dnf_to_json(lineage))
            with pytest.raises(ServingError):
                await wire.evaluate([["a", True]])
            return await wire.stats()

        summary = asyncio.run(scenario())
        assert summary["lineage_parses"] == 1
        assert summary["lineage_parse_hits"] == 4
        assert serving.stats.lineage_parses == 1
        assert serving.stats.lineage_parse_hits == 4
