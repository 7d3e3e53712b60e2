"""``serve-mixed``: a persisted circuit store behind the full JSON path.

Set-up compiles exact circuits (``ConfidenceEngine.compile_circuit``)
for every answer of the 13 paper queries on one TPC-H instance, saves
them with ``CircuitCache.save`` and serves the file through
``ServingApp`` driven by the in-process ``ASGIClient`` (JSON codec,
routing, admission, micro-batching and the response cache; no socket).
``CALLERS`` async callers on one event-loop thread each await their
reply before sending the next request (closed loop).  The requests are a
seeded mix of ``evaluate``, ``bounds``, ``gradients``, ``what_if``,
``sweep`` and ``top_k``; a fixed share repeats point queries from a
small hot set.  No decomposition runs in the timed phase.

Traced, the same request stream is replayed through three paths —
direct kernel calls, ``ServingClient`` and ``ASGIClient`` — and each
layer's time is the difference between adjacent paths.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import sys
import time
from typing import Any, Dict, List, Optional

from repro import CircuitCache, ProbDB
from repro.circuits import sweep_bounds, sweep_values, what_if_scenarios
from repro.serving import (
    ASGIClient,
    CircuitStoreService,
    ServingApp,
    ServingClient,
    ServingConfig,
    ServingEngine,
    ServingError,
)
from repro.serving.codec import dnf_to_json, gradients_to_json

from harness import Phase, scratch_dir
from workloads import tpch_common as common

SCALE_FACTOR = 0.02
#: The store is compiled from one fixed instance; ``--seed`` drives the
#: request stream.
INSTANCE_SEED = 0
CALLERS = 32
#: Share of requests that repeat an ``evaluate`` from the hot set.  The
#: repo records no real traffic, so this is an assumption: one request in
#: four is a repeat, so the response-cache path carries a visible share
#: while three in four still reach the kernels (the serving-latency bench
#: has no repeats; the fleet bench, a cache test, has 20 of 21).
HOT_SHARE = 0.25
#: Hot-set size: far below the response cache's default 1024 entries, so
#: after its first miss every repeat is a hit and the hit ratio stays
#: near ``HOT_SHARE`` whatever the cache's capacity.
HOT_SET = 8
#: Op mix of the remaining requests: equal shares, as the round-robin of
#: ``benchmarks/bench_serving_latency.py`` (evaluate, what_if, sweep,
#: top_k), plus the two ops it lacks (bounds, gradients).
MIX = tuple(
    (kind, 1 / 6)
    for kind in ("evaluate", "bounds", "gradients", "what_if", "sweep", "top_k")
)
#: Request sizes and the single overridden variable per scenario, as in
#: ``benchmarks/bench_serving_latency.py``.
WHAT_IF_POINTS = 5
SWEEP_SCENARIOS = 8
TOP_K = 3
STORE = "tpch"
#: Trace metrics that do not apply to this workload, with the reason;
#: they are reported as 0.
NOT_APPLICABLE = {
    "trace.unattributed_share": (
        "layer times are differences between three replays of one stream, "
        "which cover the replay's wall time by construction"
    ),
    "trace.overhead_share": (
        "no span runs in the timed path; the traced half is the ASGI "
        "replay on a fresh engine, so its throughput against the "
        "untraced loop would measure cache warmth, not tracing"
    ),
}
#: Requests replayed by the count pass.
COUNT_REQUESTS = 600


def settings():
    return {
        "scale_factor": SCALE_FACTOR,
        "instance_seed": INSTANCE_SEED,
        "queries": "all 13 paper queries, exact circuits",
        "callers_in_flight": CALLERS,
        "event_loop_threads": 1,
        "repeated_request_share": HOT_SHARE,
        "hot_set": HOT_SET,
        "op_mix_of_rest": dict(MIX),
        "overridden_variables_per_scenario": 1,
        "what_if_points": WHAT_IF_POINTS,
        "sweep_scenarios": SWEEP_SCENARIOS,
        "top_k": TOP_K,
        "path": "ServingApp via ASGIClient",
        "workers": 1,
    }


class Spec:
    """One request: op kind, lineage index and arguments."""

    __slots__ = ("kind", "lineage", "args")

    def __init__(self, kind: str, lineage: int, args: Any) -> None:
        self.kind = kind
        self.lineage = lineage
        self.args = args


class Stream:
    """The seeded request sequence; ``next()`` is deterministic."""

    def __init__(self, seed: int, variables: List[List[Any]]) -> None:
        self.rng = random.Random(seed)
        self.variables = variables
        self.kinds = [kind for kind, _w in MIX]
        self.weights = [weight for _k, weight in MIX]
        self.hot = [self._fresh("evaluate") for _ in range(HOT_SET)]

    def _prob(self) -> float:
        # The override probabilities of benchmarks/bench_serving_latency.py.
        return round(self.rng.uniform(0.05, 0.95), 6)

    def _overrides(self, lineage: int) -> Dict[Any, float]:
        names = self.variables[lineage]
        return {self.rng.choice(names): self._prob()}

    def _fresh(self, kind: str) -> Spec:
        rng = self.rng
        lineage = rng.randrange(len(self.variables))
        if kind == "what_if":
            variable = rng.choice(self.variables[lineage])
            probs = [self._prob() for _ in range(WHAT_IF_POINTS)]
            return Spec(kind, lineage, (variable, probs))
        if kind == "sweep":
            scenarios = [
                self._overrides(lineage) for _ in range(SWEEP_SCENARIOS)
            ]
            return Spec(kind, lineage, scenarios)
        return Spec(kind, lineage, self._overrides(lineage))

    def next(self) -> Spec:
        if self.rng.random() < HOT_SHARE:
            return self.rng.choice(self.hot)
        kind = self.rng.choices(self.kinds, self.weights)[0]
        return self._fresh(kind)


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tmp = scratch_dir()
        self.path = os.path.join(self.tmp, "store.bin")
        database = common.instance(SCALE_FACTOR, INSTANCE_SEED, 0)
        self.registry = database.registry
        cache = CircuitCache()
        self.dnfs = []
        self.compile_s = 0.0
        with ProbDB(database) as session:
            for _name, query in common.queries(common.ALL_QUERY_NAMES):
                for _values, dnf in session.query(query).lineage():
                    if cache.get(dnf) is not None:
                        continue
                    started = time.perf_counter()
                    circuit = session.engine.compile_circuit(dnf)
                    self.compile_s += time.perf_counter() - started
                    cache.put(dnf, circuit)
                    self.dnfs.append(dnf)
        started = time.perf_counter()
        cache.save(self.path)
        self.save_s = time.perf_counter() - started
        self.store_bytes = os.path.getsize(self.path)
        self.direct = CircuitCache()
        started = time.perf_counter()
        self.direct.load_into(self.path, self.registry)
        self.load_s = time.perf_counter() - started
        self.circuits = [self.direct.get(dnf) for dnf in self.dnfs]
        self.nodes = sum(
            sum(circuit.node_histogram().values())
            for circuit in self.circuits
        )
        self.wire = [dnf_to_json(dnf) for dnf in self.dnfs]
        self.variables = [circuit.variables() for circuit in self.circuits]
        self.stores = CircuitStoreService(self.registry, {STORE: self.path})
        self.serving = self.new_engine()
        self.client = ASGIClient(ServingApp(self.serving))
        #: ``(spec, response)`` of the last timed phase, for the check.
        self.responses: List[tuple] = []

    def new_engine(self) -> ServingEngine:
        return ServingEngine(
            self.stores, None, ServingConfig(max_inflight=CALLERS)
        )

    def close(self) -> None:
        asyncio.run(self.serving.close())
        shutil.rmtree(self.tmp, ignore_errors=True)


async def send(state: State, client, spec: Spec) -> Dict[str, Any]:
    lineage = state.wire[spec.lineage]
    kind = spec.kind
    if kind == "evaluate":
        return await client.evaluate(lineage, overrides=spec.args)
    if kind == "bounds":
        return await client.bounds(lineage, overrides=spec.args)
    if kind == "gradients":
        return await client.gradients(lineage, overrides=spec.args)
    if kind == "what_if":
        variable, probs = spec.args
        return await client.what_if(lineage, variable, probs)
    if kind == "sweep":
        return await client.sweep(lineage, spec.args)
    return await client.top_k(state.wire, TOP_K, overrides=spec.args)


def answer_of(kind: str, response: Dict[str, Any]) -> Any:
    """The result part of a response, as plain JSON values."""
    field = {
        "evaluate": "value",
        "bounds": "bounds",
        "gradients": "gradients",
        "what_if": "values",
        "sweep": "results",
        "top_k": "answers",
    }[kind]
    return json.loads(json.dumps(response[field]))


def reference(state: State, spec: Spec) -> Any:
    """The direct scalar ``Circuit`` call for ``spec``, JSON-shaped."""
    circuit = state.circuits[spec.lineage]
    kind = spec.kind
    if kind == "evaluate":
        result: Any = circuit.evaluate(spec.args)
    elif kind == "bounds":
        result = list(circuit.evaluate_bounds(spec.args))
    elif kind == "gradients":
        result = gradients_to_json(circuit.gradients(spec.args))
    elif kind == "what_if":
        variable, probs = spec.args
        result = [circuit.evaluate({variable: p}) for p in probs]
    elif kind == "sweep":
        result = [circuit.evaluate(s) for s in spec.args]
    else:
        values = [c.evaluate(spec.args) for c in state.circuits]
        ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
        result = [[i, values[i]] for i in ranked[:TOP_K]]
    return json.loads(json.dumps(result))


def kernel_call(state: State, spec: Spec) -> int:
    """``spec`` as direct kernel calls; returns the rows evaluated."""
    circuit = state.circuits[spec.lineage]
    kind = spec.kind
    if kind == "evaluate":
        sweep_values(circuit, [spec.args])
        return 1
    if kind == "bounds":
        sweep_bounds(circuit, [spec.args])
        return 1
    if kind == "gradients":
        circuit.gradients(spec.args)
        return 1
    if kind == "what_if":
        variable, probs = spec.args
        sweep_values(circuit, what_if_scenarios(variable, probs))
        return len(probs)
    if kind == "sweep":
        sweep_values(circuit, spec.args)
        return len(spec.args)
    values = [sweep_values(c, [spec.args])[0] for c in state.circuits]
    sorted(range(len(values)), key=lambda i: (-values[i], i))
    return len(values)


async def drive(
    state: State,
    client,
    specs,
    phase: Phase,
    responses: Optional[list],
    seconds: Optional[float] = None,
) -> None:
    """``CALLERS`` closed-loop callers; stop at ``seconds`` or when the
    ``specs`` iterator runs out."""
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    async def caller() -> None:
        while deadline is None or time.perf_counter() < deadline:
            spec = next(specs, None)
            if spec is None:
                return
            phase.attempted += 1
            sent = time.perf_counter()
            try:
                response = await send(state, client, spec)
            except ServingError as exc:
                phase.failed += 1
                print(f"request failed: {exc}", file=sys.stderr)
                continue
            phase.record(spec.kind, sent, time.perf_counter())
            if responses is not None:
                responses.append((spec, response))

    await asyncio.gather(*[caller() for _ in range(CALLERS)])
    phase.wall_s = time.perf_counter() - start


def spec_iter(stream: Stream, count: Optional[int] = None):
    index = 0
    while count is None or index < count:
        yield stream.next()
        index += 1


def setup(seed: int) -> State:
    state = State(seed)
    # Warm-up: lower every circuit's kernel on both the served and the
    # direct copy, and touch every route once.
    warm = [Spec("evaluate", i, None) for i in range(len(state.dnfs))]
    warm += [Spec(k, 0, {}) for k in ("bounds", "gradients", "top_k")]
    asyncio.run(drive(state, state.client, iter(warm), Phase(), None))
    for spec in warm:
        kernel_call(state, spec)
    return state


def teardown(state: State) -> None:
    state.close()


class ByteCounter:
    """ASGI wrapper counting request and response body bytes."""

    def __init__(self, app) -> None:
        self.app = app
        self.request_bytes = 0
        self.response_bytes = 0

    async def __call__(self, scope, receive, send) -> None:
        async def counted_receive():
            message = await receive()
            self.request_bytes += len(message.get("body", b""))
            return message

        async def counted_send(message):
            if message["type"] == "http.response.body":
                self.response_bytes += len(message.get("body", b""))
            await send(message)

        await self.app(scope, counted_receive, counted_send)


def run(state: State, seconds: float, tracer) -> Phase:
    stream = Stream(state.seed, state.variables)
    if not tracer.enabled:
        phase = Phase()
        state.responses = []
        asyncio.run(
            drive(
                state, state.client, spec_iter(stream), phase,
                state.responses, seconds,
            )
        )
        return phase
    return replay_three_paths(state, stream, seconds, tracer)


def replay_three_paths(state: State, stream: Stream, seconds, tracer):
    """Replay one request stream directly, via ``ServingClient`` and via
    ``ASGIClient``; attribute the differences to the layers between.

    The number of requests is sized from a short calibration so the
    three replays together take about ``seconds``.
    """
    probe = Phase()
    calibrate = list(spec_iter(Stream(state.seed + 1, state.variables), 200))
    asyncio.run(drive(state, state.client, iter(calibrate), probe, None))
    count = max(200, int(seconds / 2.2 * probe.throughput()))
    specs = list(spec_iter(stream, count))

    started = time.perf_counter()
    rows = sum(kernel_call(state, spec) for spec in specs)
    direct_s = time.perf_counter() - started

    in_process = state.new_engine()
    client_phase = Phase()
    asyncio.run(
        drive(state, ServingClient(in_process), iter(specs), client_phase, None)
    )
    asyncio.run(in_process.close())

    wired = state.new_engine()
    counter = ByteCounter(ServingApp(wired))
    phase = Phase()
    state.responses = []
    asyncio.run(
        drive(state, ASGIClient(counter), iter(specs), phase, state.responses)
    )
    asyncio.run(wired.close())
    phase.failed += client_phase.failed

    tracer.add("kernels", direct_s)
    tracer.add("serving.engine", client_phase.wall_s - direct_s)
    tracer.add("serving.wire", phase.wall_s - client_phase.wall_s)
    stats = wired.stats
    phase.layer.update(
        {
            "circuits.compile_s": state.compile_s,
            "store.save_s": state.save_s,
            "store.load_s": state.load_s,
            "kernels.rows": rows,
            "serving.batches": stats.batches,
            "serving.batch_rows_mean": stats.occupancy(),
            "serving.response_hit_ratio": stats.response_hit_ratio(),
            "serving.shed": stats.shed,
            "serving.max_inflight": stats.max_inflight,
            "serving.wire.request_bytes": counter.request_bytes,
            "serving.wire.response_bytes": counter.response_bytes,
        }
    )
    # The ASGI replay is the traced phase's end-to-end view.
    return phase


def check(state: State):
    """Every response equals the direct scalar ``Circuit`` call."""
    checked = mismatches = 0
    notes = []
    expected: Dict[int, Any] = {}
    for spec, response in state.responses:
        key = id(spec)
        if key not in expected:
            expected[key] = reference(state, spec)
        checked += 1
        if answer_of(spec.kind, response) != expected[key]:
            mismatches += 1
            if len(notes) < 5:
                notes.append(f"{spec.kind} on lineage {spec.lineage} differs")
    return checked, mismatches, notes


def count_pass(seed: int):
    state = setup(seed)
    try:
        specs = list(
            spec_iter(Stream(seed, state.variables), COUNT_REQUESTS)
        )
        rows = sum(kernel_call(state, spec) for spec in specs)
        counter = ByteCounter(ServingApp(state.serving))
        asyncio.run(
            drive(state, ASGIClient(counter), iter(specs), Phase(), None)
        )
        return {
            "circuits.nodes": state.nodes,
            "store.bytes": state.store_bytes,
            "kernels.rows": rows,
            "serving.wire.request_bytes": counter.request_bytes,
        }
    finally:
        state.close()


def layer_metrics(phase: Phase, tracer):
    times = tracer.self_times()
    out = {
        name + ".self_s": times.get(name, 0.0)
        for name in ("kernels", "serving.engine", "serving.wire")
    }
    out.update(phase.layer)
    return out
