"""Concurrency stress for the serving tier (satellite acceptance).

Mixed ``evaluate`` / ``what_if`` / ``top_k`` / ``bounds`` traffic from
several tenants, all in flight at once, must produce **bit-identical**
answers to a serial reference pass — micro-batching, semaphores, and
tenant interleaving are latency mechanisms, never semantics.  The
acceptance bar from the issue: at least 8 requests concurrently in
flight (asserted via the stats high-water mark) and no cross-tenant
leakage (each tenant's distinctly-parameterised requests come back
with that tenant's numbers).

A second pass drives separate engines from OS threads over the same
shared :class:`CircuitStoreService`, exercising the thread-safe
``CircuitCache`` read path; a third shares one engine's lineage memo
between threads while it evicts.
"""

import asyncio
import sys
import threading

import pytest

from repro.circuits import CircuitCache
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine
from repro.serving import (
    CircuitStoreService,
    ServingClient,
    ServingConfig,
    ServingEngine,
)
from repro.serving import engine as serving_engine
from repro.serving.codec import dnf_from_json, dnf_to_json

TENANTS = ("alpha", "beta", "gamma", "delta")


def make_registry():
    registry = VariableRegistry()
    for index in range(12):
        registry.add_boolean(f"v{index}", 0.06 + 0.07 * index)
    return registry


def dnf(*clauses):
    return DNF([Clause({v: True for v in clause}) for clause in clauses])


LINEAGES = [
    dnf(("v0", "v1"), ("v2",)),
    dnf(("v3", "v4"), ("v5", "v6")),
    dnf(("v1", "v7"), ("v8",), ("v9", "v10")),
    dnf(("v2", "v11"), ("v4", "v9")),
]


@pytest.fixture
def stack(tmp_path):
    registry = make_registry()
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    circuits = {}
    for lineage in LINEAGES:
        circuit = engine.compile_circuit(lineage)
        cache.put(lineage, circuit)
        circuits[lineage] = circuit
    path = tmp_path / "store.bin"
    cache.save(path)
    stores = CircuitStoreService(registry, {"main": path})
    return registry, stores, circuits


def build_workload(circuits):
    """(tenant, coroutine-factory, expected) triples, tenant-distinct.

    Every request is parameterised by its tenant and sequence number,
    so any cross-tenant mixup in the batching layer would surface as a
    wrong number, not just a wrong label.
    """
    workload = []
    for t_index, tenant in enumerate(TENANTS):
        for step in range(10):
            lineage = LINEAGES[(t_index + step) % len(LINEAGES)]
            circuit = circuits[lineage]
            p = round(0.05 + 0.02 * t_index + 0.017 * step, 6)
            kind = step % 4
            if kind == 0:
                expected = circuit.evaluate({"v1": p})

                def call(client, lineage=lineage, p=p, tenant=tenant):
                    return client.evaluate(
                        lineage, overrides={"v1": p}, tenant=tenant
                    )

                check = (
                    lambda response, expected=expected: response["value"]
                    == expected
                )
            elif kind == 1:
                grid = [p, p + 0.3, p + 0.6]
                expected = [circuit.evaluate({"v2": g}) for g in grid]

                def call(
                    client, lineage=lineage, grid=grid, tenant=tenant
                ):
                    return client.what_if(
                        lineage, "v2", grid, tenant=tenant
                    )

                check = (
                    lambda response, expected=expected: response["values"]
                    == expected
                )
            elif kind == 2:
                expected = circuit.evaluate_bounds({"v4": p})

                def call(client, lineage=lineage, p=p, tenant=tenant):
                    return client.bounds(
                        lineage, overrides={"v4": p}, tenant=tenant
                    )

                check = (
                    lambda response, expected=expected: tuple(
                        response["bounds"]
                    )
                    == expected
                )
            else:
                values = [
                    circuits[entry].evaluate({"v0": p})
                    for entry in LINEAGES
                ]
                order = sorted(
                    range(len(values)), key=lambda i: (-values[i], i)
                )[:2]
                expected = [[i, values[i]] for i in order]

                def call(client, p=p, tenant=tenant):
                    return client.top_k(
                        LINEAGES,
                        2,
                        overrides={"v0": p},
                        tenant=tenant,
                    )

                check = (
                    lambda response, expected=expected: [
                        list(pair) for pair in response["answers"]
                    ]
                    == expected
                )
            workload.append((tenant, call, check))
    return workload


def test_mixed_tenants_bit_identical_and_concurrent(stack):
    registry, stores, circuits = stack
    serving = ServingEngine(
        stores,
        ConfidenceEngine(registry),
        ServingConfig(
            max_inflight=32,
            per_tenant_inflight=16,
            batch_window_seconds=0.005,
        ),
    )
    client = ServingClient(serving)
    workload = build_workload(circuits)

    async def storm():
        return await asyncio.gather(
            *[call(client) for _tenant, call, _check in workload]
        )

    responses = asyncio.run(storm())
    failures = [
        index
        for index, ((_t, _call, check), response) in enumerate(
            zip(workload, responses)
        )
        if not check(response)
    ]
    assert failures == [], f"non-identical responses at {failures}"
    stats = serving.stats
    assert stats.max_inflight >= 8, stats.max_inflight
    assert set(stats.tenants) == set(TENANTS)
    assert all(count == 10 for count in stats.tenants.values())
    # Same-circuit rows from different tenants coalesced into shared
    # kernel flushes; results above prove tenant isolation held anyway.
    assert stats.occupancy() > 1.0


def test_repeat_storms_are_deterministic(stack):
    registry, stores, circuits = stack
    workload = build_workload(circuits)

    def one_storm():
        serving = ServingEngine(stores, ConfidenceEngine(registry))
        client = ServingClient(serving)

        async def storm():
            return await asyncio.gather(
                *[call(client) for _t, call, _check in workload]
            )

        return asyncio.run(storm())

    first = one_storm()
    second = one_storm()
    for a, b in zip(first, second):
        a.pop("store_version", None)
        b.pop("store_version", None)
        assert a == b


def test_threaded_engines_share_store_snapshots(stack):
    registry, stores, circuits = stack
    workload = build_workload(circuits)
    errors = []

    def worker():
        try:
            serving = ServingEngine(stores, ConfidenceEngine(registry))
            client = ServingClient(serving)

            async def storm():
                return await asyncio.gather(
                    *[call(client) for _t, call, _check in workload]
                )

            responses = asyncio.run(storm())
            for (_t, _call, check), response in zip(
                workload, responses
            ):
                if not check(response):
                    errors.append(response)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_threads_share_one_lineage_memo(monkeypatch):
    """Threads hammering one engine's lineage memo, with a budget small
    enough to evict constantly, lose no update: the character count
    matches the keys, stays within the budget, and every call is
    counted exactly once as a parse or a hit."""
    serving = ServingEngine(CircuitStoreService(make_registry()))
    wires = [
        dnf_to_json(lineage) for lineage in LINEAGES
    ] + [[[["v0", True], ["w", index]]] for index in range(10, 22)]
    budget = 4 * max(len(repr(wire)) for wire in wires)
    monkeypatch.setattr(serving_engine, "_LINEAGE_MEMO_CHARS", budget)
    rounds, threads_count = 200, 8
    errors = []

    def worker(offset):
        try:
            for step in range(rounds):
                wire = wires[(offset + step) % len(wires)]
                if serving._lineage(wire) != dnf_from_json(wire):
                    errors.append(wire)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = serving.stats
    assert stats.lineage_parses + stats.lineage_parse_hits == (
        rounds * threads_count
    )
    assert serving._lineage_chars == sum(
        len(key) for key in serving._lineages
    )
    assert serving._lineage_chars <= budget
