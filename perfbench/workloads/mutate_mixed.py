"""``mutate-mixed``: one warm session under a 4:1 read/write mix.

Set-up opens one :class:`~repro.ProbDB` with
``EngineConfig(compile_circuits=True)`` (exact) over a TPC-H instance and
reads every answer of the 13 paper queries once, so each answer's
lineage has a cached exact circuit.  One caller then sends a seeded
stream: a read is ``ProbDB.confidence`` on an answer lineage, a write is
``UPDATE <table> SET PROBABILITY = p WHERE ...`` on one
tuple-independent row, sent through ``ProbDB.execute``.  Writes evict
the circuit and memo cones they touch; later reads of those answers
recompute.

Every op of the timed phase is logged (one list append), so the check
can compare the values the timed reads returned against from-scratch
rebuilds at the probabilities of their moment.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro import EngineConfig, ProbDB, VariableRegistry
from repro.core import AtomNode
from repro.db.sql import parse_statement

from harness import Phase, closed_loop, percentile
from tracing import Tracer
from workloads import tpch_common as common

SCALE_FACTOR = 0.01
#: The database is one fixed instance; ``--seed`` drives the op stream
#: (which answers are read, which rows get which new probability).
INSTANCE_SEED = 0
WRITE_SHARE = 0.2  # 4 reads : 1 write, as the workload is defined
#: A write moves a row's probability to ``base * uniform(0.5, 1.5)``,
#: clamped to [0.01, 0.99] — the re-weighting of
#: ``benchmarks/bench_incremental_updates.py``.
WRITE_SCALE = (0.5, 1.5)
WRITE_CLAMP = (0.01, 0.99)
COUNT_OPS = 300
TOLERANCE = 1e-9
#: Timed reads compared against a rebuild: a seeded sample of the reads
#: that recomputed (the session answered without a cached circuit) and of
#: the circuit hits, plus one final read of every answer.
CHECK_RECOMPUTES = 200
CHECK_HITS = 100


def settings():
    return {
        "scale_factor": SCALE_FACTOR,
        "instance_seed": INSTANCE_SEED,
        "queries": "answers of all 13 paper queries",
        "epsilon": 0.0,
        "compile_circuits": True,
        "op_mix": {"read": 1 - WRITE_SHARE, "write": WRITE_SHARE},
        "read": "ProbDB.confidence(answer lineage), answer uniform",
        "write": "ProbDB.execute('UPDATE ... SET PROBABILITY = p WHERE ...')"
        ", row uniform over tuple-independent rows",
        "write_probability": (
            f"clamp(current * uniform{WRITE_SCALE}, {WRITE_CLAMP})"
        ),
        "checked_reads": {
            "recomputes": CHECK_RECOMPUTES, "circuit_hits": CHECK_HITS,
        },
        "callers_in_flight": 1,
        "workers": 1,
    }


def writable_rows(database):
    """``(table, WHERE text, variable)`` of every tuple-independent row
    that its integer columns identify uniquely."""
    rows = []
    for relation in database:
        if not len(relation):
            continue
        first_row = relation.rows[0][0]
        columns = [i for i, v in enumerate(first_row) if isinstance(v, int)]
        keys = [tuple(values[i] for i in columns) for values, _l in relation]
        counts = Counter(keys)
        for (values, lineage), key in zip(relation, keys):
            if isinstance(lineage, AtomNode) and counts[key] == 1:
                where = " AND ".join(
                    f"{relation.attributes[i]} = {values[i]}" for i in columns
                )
                rows.append((relation.name, where, lineage.atom.variable))
    return rows


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.database = common.instance(SCALE_FACTOR, INSTANCE_SEED, 0)
        self.session = ProbDB(
            self.database, EngineConfig(compile_circuits=True)
        )
        self.answers = []
        seen = set()
        for _name, query in common.queries(common.ALL_QUERY_NAMES):
            for _values, dnf in self.session.query(query).lineage():
                if dnf not in seen:
                    seen.add(dnf)
                    self.answers.append(dnf)
        started = time.perf_counter()
        for dnf in self.answers:
            self.session.confidence(dnf)
        self.compile_s = time.perf_counter() - started
        self.rows = writable_rows(self.database)
        #: Every op of the timed phases in order:
        #: ``("write", variable, probability)`` or
        #: ``("read", answer index, returned probability, strategy)``.
        self.log = []

    def close(self) -> None:
        self.session.close()


class Stream:
    """The seeded op sequence: reads of answers, probability writes."""

    def __init__(self, seed: int, state: State) -> None:
        self.rng = random.Random(seed)
        self.state = state

    def next(self):
        rng = self.rng
        if rng.random() < WRITE_SHARE:
            table, where, variable = rng.choice(self.state.rows)
            base = self.state.database.registry.probability(variable, True)
            low, high = WRITE_CLAMP
            probability = min(high, max(low, base * rng.uniform(*WRITE_SCALE)))
            return ("write", table, where, variable, probability)
        return ("read", rng.randrange(len(self.state.answers)))


def op(state: State, stream: Stream, tracer, phase: Phase):
    entry = stream.next()
    session = state.session
    if entry[0] == "write":
        _kind, table, where, variable, probability = entry
        sql = f"UPDATE {table} SET PROBABILITY = {probability!r} WHERE {where}"
        if tracer.enabled:
            with tracer.span("mutations.parse"):
                statement = parse_statement(sql, session.database)
            with tracer.span("mutations"):
                outcome = statement.apply(session)
        else:
            outcome = session.execute(sql)
        if outcome.rows_affected < 1:
            return None
        state.log.append(("write", variable, probability))
        if tracer.enabled:
            report = outcome.invalidation
            phase.bump("invalidation.circuits_evicted", report.circuits_evicted)
            phase.bump("invalidation.memo_evicted", report.memo_evicted)
        return "write"
    index = entry[1]
    dnf = state.answers[index]
    if not tracer.enabled:
        result = session.confidence(dnf)
        state.log.append(("read", index, result.probability, result.strategy))
        return "read"
    memo_before = session.cache_stats()
    cache_before = session.circuit_cache_stats()
    started = time.perf_counter()
    result = session.confidence(dnf)
    elapsed = time.perf_counter() - started
    state.log.append(("read", index, result.probability, result.strategy))
    common.memo_delta(memo_before, session.cache_stats(), phase)
    cache_after = session.circuit_cache_stats()
    for key in ("hits", "misses"):
        phase.bump(f"circuit_cache.{key}", cache_after[key] - cache_before[key])
    phase.bump(f"planner.rung.{common.rung(result.strategy)}")
    if result.strategy == "circuit":
        tracer.add("circuits", elapsed)
    else:
        tracer.add("requery", elapsed)
        phase.bump("requery.recomputes")
        phase.bump("requery.dtree_steps", result.steps)
        phase.bump("dtree.steps", result.steps)
        if result.circuit is not None:
            phase.bump(
                "circuits.nodes", sum(result.circuit.node_histogram().values())
            )
    return "read"


def setup(seed: int) -> State:
    return State(seed)


def teardown(state: State) -> None:
    state.close()


def run(state: State, seconds: float, tracer) -> Phase:
    phase = Phase()
    stream = Stream(state.seed, state)
    closed_loop(seconds, phase, lambda _i: op(state, stream, tracer, phase))
    phase.layer["circuits.compile_s"] = state.compile_s
    return phase


def check(state: State):
    """Logged reads equal a from-scratch rebuild at the probabilities of
    their moment, to 1e-9.

    Checked are a seeded sample of the timed reads that recomputed
    (``CHECK_RECOMPUTES``), a seeded sample of the circuit hits
    (``CHECK_HITS``) and one final read of every answer.  The rebuild
    shares nothing with the session: the instance is generated again, and
    each checked read is answered by a fresh session over a fresh
    registry holding only that answer's variables, at their initial
    probabilities overlaid with every write logged before the read (cold
    memo, no circuits, no state cached on a mutated registry).
    """
    for index, dnf in enumerate(state.answers):
        result = state.session.confidence(dnf)
        state.log.append(("read", index, result.probability, "final"))
    reads = [i for i, entry in enumerate(state.log) if entry[0] == "read"]
    recomputes = [i for i in reads if state.log[i][3] not in ("circuit", "final")]
    hits = [i for i in reads if state.log[i][3] == "circuit"]
    rng = random.Random(state.seed)
    chosen = set(i for i in reads if state.log[i][3] == "final")
    chosen.update(rng.sample(recomputes, min(CHECK_RECOMPUTES, len(recomputes))))
    chosen.update(rng.sample(hits, min(CHECK_HITS, len(hits))))
    initial = common.instance(SCALE_FACTOR, INSTANCE_SEED, 0).registry
    current = {}
    checked = mismatches = 0
    notes = []
    for position, entry in enumerate(state.log):
        if entry[0] == "write":
            current[entry[1]] = entry[2]
            continue
        if position not in chosen:
            continue
        _kind, index, returned, strategy = entry
        dnf = state.answers[index]
        registry = VariableRegistry()
        for name in dnf.variables:
            if name in current:
                registry.add_boolean(name, current[name])
            else:
                registry.add_variable(name, initial.distribution(name))
        with ProbDB.from_registry(registry, EngineConfig()) as rebuilt:
            expected = rebuilt.confidence(dnf).probability
        checked += 1
        if abs(returned - expected) > TOLERANCE:
            mismatches += 1
            if len(notes) < 5:
                notes.append(
                    f"op {position} ({strategy}) answer {index}: read "
                    f"{returned!r}, rebuild {expected!r}"
                )
    return checked, mismatches, notes


#: Counts reported from the count pass.
COUNTS = (
    "invalidation.circuits_evicted",
    "invalidation.memo_evicted",
    "requery.recomputes",
    "requery.dtree_steps",
    "dtree.steps",
    "circuits.nodes",
    "circuit_cache.hits",
    "circuit_cache.misses",
    "memo.hits",
    "memo.misses",
    "memo.entries",
    "planner.rung.sprout",
    "planner.rung.read-once",
    "planner.rung.dtree",
    "planner.rung.circuit",
    "planner.rung.mc",
    "planner.rung.other",
)


def count_pass(seed: int):
    state = State(seed)
    try:
        phase = Phase()
        stream = Stream(seed, state)
        tracer = Tracer(enabled=True)
        for _ in range(COUNT_OPS):
            op(state, stream, tracer, phase)
        return common.pick_counts(phase, COUNTS)
    finally:
        state.close()


def layer_metrics(phase: Phase, tracer):
    times = tracer.self_times()
    writes = phase.writes()
    requery_s = times.get("requery", 0.0)
    return {
        "circuits.compile_s": phase.layer["circuits.compile_s"],
        "circuits.eval_s": times.get("circuits", 0.0),
        "circuit_cache.hit_ratio": common.hit_ratio(phase, "circuit_cache"),
        "mutations.self_s": times.get("mutations", 0.0),
        "mutations.parse_s": times.get("mutations.parse", 0.0),
        "mutations.write_p50_ms": percentile(writes, 0.5) * 1e3 if writes else 0.0,
        "dtree.self_s": requery_s,
        "dtree.steps_per_s": (
            phase.layer.get("dtree.steps", 0) / requery_s if requery_s else 0.0
        ),
        "memo.hit_ratio": common.hit_ratio(phase, "memo"),
    }
