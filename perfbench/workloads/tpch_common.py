"""Shared pieces of the TPC-H workloads: seeded instances and one traced
``QueryResult.confidences()`` call."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import ConfidenceEngine, ProbDB
from repro.datasets.tpch import TPCHConfig, generate_tpch
from repro.datasets.tpch_queries import ALL_QUERIES, make_query

#: The 13 paper queries (hierarchical, IQ and hard).
ALL_QUERY_NAMES = tuple(ALL_QUERIES)

#: Planner rungs reported by name; any other ``EngineResult.strategy``
#: counts as ``other``.
RUNGS = ("sprout", "read-once", "dtree", "circuit", "mc")


def instance_seed(seed: int, index: int) -> int:
    """The generator seed of instance ``index`` of workload seed ``seed``."""
    return seed * 100_003 + index


def instance(scale_factor: float, seed: int, index: int):
    return generate_tpch(
        TPCHConfig(scale_factor=scale_factor, seed=instance_seed(seed, index))
    )


def queries(names) -> List[Tuple[str, object]]:
    return [(name, make_query(name)) for name in names]


def rung(strategy: str) -> str:
    return strategy if strategy in RUNGS else "other"


def memo_delta(before: Dict[str, int], after: Dict[str, int], phase) -> None:
    for key in ("hits", "misses", "entries"):
        phase.bump(f"memo.{key}", after[key] - before[key])


def confidences(session: ProbDB, query, tracer, phase, **kwargs):
    """``session.query(query).confidences(**kwargs)``, with spans and
    work counts when ``tracer`` is enabled.

    Traced, a lineage-routed query materialises its lineage in a
    ``lineage`` span before the ``dtree`` span around ``confidences()``
    (the same work ``confidences()`` would do inside); a SPROUT query
    never builds lineage and gets one ``sprout`` span.  The ``dtree``
    span covers the whole engine batch: planner, read-once and d-tree
    rungs, bounds and memo.
    """
    result = session.query(query)
    if not tracer.enabled:
        return result.confidences(**kwargs)
    before = session.cache_stats()
    strategy, _reason = ConfidenceEngine.select_query_strategy(
        query, session.database
    )
    if strategy == "sprout":
        with tracer.span("sprout"):
            pairs = result.confidences(**kwargs)
    else:
        with tracer.span("lineage"):
            lineage = result.lineage()
        with tracer.span("dtree"):
            pairs = result.confidences(**kwargs)
        phase.bump("lineage.clauses", sum(len(dnf) for _v, dnf in lineage))
        phase.bump("lineage.answers", len(lineage))
    memo_delta(before, session.cache_stats(), phase)
    for _values, outcome in pairs:
        phase.bump(f"planner.rung.{rung(outcome.strategy)}")
        phase.bump("dtree.steps", outcome.steps)
        if not outcome.converged:
            phase.bump("dtree.unconverged")
    return pairs


def engine_self_times(tracer, phase) -> Dict[str, float]:
    """Layer metrics shared by the two query workloads."""
    times = tracer.self_times()
    dtree_s = times.get("dtree", 0.0)
    return {
        "lineage.self_s": times.get("lineage", 0.0),
        "sprout.self_s": times.get("sprout", 0.0),
        "dtree.self_s": dtree_s,
        "dtree.steps_per_s": (
            phase.layer.get("dtree.steps", 0) / dtree_s if dtree_s else 0.0
        ),
        "memo.hit_ratio": hit_ratio(phase, "memo"),
    }


def hit_ratio(phase, layer: str) -> float:
    """``<layer>.hits / (hits + misses)`` from the phase's counts."""
    hits = phase.layer.get(f"{layer}.hits", 0)
    misses = phase.layer.get(f"{layer}.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


#: Counts the two query workloads report from their count pass.
QUERY_COUNTS = (
    "lineage.clauses",
    "lineage.answers",
    "planner.rung.sprout",
    "planner.rung.read-once",
    "planner.rung.dtree",
    "planner.rung.circuit",
    "planner.rung.mc",
    "planner.rung.other",
    "dtree.steps",
    "dtree.unconverged",
    "memo.hits",
    "memo.misses",
    "memo.entries",
)


def pick_counts(phase, names) -> Dict[str, int]:
    return {name: int(phase.layer.get(name, 0)) for name in names}


def sound(outcome) -> bool:
    return 0.0 <= outcome.lower <= outcome.upper <= 1.0
