"""``tractable-exact``: hierarchical and IQ queries at ε = 0.

The six hierarchical queries (1, 15, B1, B6, B16, B17) and the three IQ
queries (IQ B1, IQ B4, IQ 6) run exactly on TPC-H instances generated
from the seed, one fresh session per instance.  One op is one query's
``confidences()``.  SPROUT and lineage construction carry the cost; the
d-tree takes a few dozen steps per answer.
"""

from __future__ import annotations

from repro import EngineConfig, ProbDB

from harness import Phase, closed_loop
from tracing import Tracer
from workloads import tpch_common as common

SCALE_FACTOR = 0.05
POOL = 128
QUERIES = ("1", "15", "B1", "B6", "B16", "B17", "IQ B1", "IQ B4", "IQ 6")
CHECK_INSTANCES = 2
COUNT_INSTANCES = 2
TOLERANCE = 1e-9


def settings():
    return {
        "scale_factor": SCALE_FACTOR,
        "instances": POOL,
        "queries": list(QUERIES),
        "epsilon": 0.0,
        "op": "one query's confidences(); fresh session per instance",
        "callers_in_flight": 1,
        "workers": 1,
    }


class State:
    def __init__(self, seed: int, size: int) -> None:
        self.pool = [
            common.instance(SCALE_FACTOR, seed, index)
            for index in range(size)
        ]
        self.queries = common.queries(QUERIES)
        self.config = EngineConfig()
        self.session = None

    def close_session(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def op(state: State, index: int, tracer, phase: Phase):
    instance, position = divmod(index, len(state.queries))
    if position == 0:
        state.close_session()
        state.session = ProbDB(
            state.pool[instance % len(state.pool)], state.config
        )
    _name, query = state.queries[position]
    pairs = common.confidences(state.session, query, tracer, phase)
    # Exact to the check's tolerance; the converged flag is not required
    # (the d-tree can close an exact run one ulp wide and report it
    # unconverged; ``dtree.unconverged`` counts those).
    for _values, outcome in pairs:
        if not (
            common.sound(outcome)
            and outcome.upper - outcome.lower <= TOLERANCE
        ):
            return None
    return "query"


def run_ops(state: State, count: int, tracer, phase: Phase) -> None:
    for index in range(count):
        op(state, index, tracer, phase)
    state.close_session()


def setup(seed: int) -> State:
    state = State(seed, POOL)
    run_ops(state, len(QUERIES), Tracer(enabled=False), Phase())  # warm-up
    return state


def teardown(state: State) -> None:
    state.close_session()


def run(state: State, seconds: float, tracer) -> Phase:
    phase = Phase()
    closed_loop(seconds, phase, lambda i: op(state, i, tracer, phase))
    state.close_session()
    return phase


def check(state: State):
    """SPROUT answers equal the engine on the answer lineage to 1e-9;
    lineage-routed answers equal their compiled circuit to 1e-9."""
    checked = mismatches = 0
    notes = []
    for index in range(CHECK_INSTANCES):
        database = state.pool[index]
        with ProbDB(database, state.config) as session, ProbDB(
            database, state.config
        ) as reference:
            for name, query in state.queries:
                result = session.query(query)
                pairs = result.confidences()
                lineage = dict(result.lineage())
                if {values for values, _r in pairs} != set(lineage):
                    mismatches += 1
                    notes.append(f"instance {index} {name}: answer sets differ")
                    continue
                sprout = all(r.strategy == "sprout" for _v, r in pairs)
                expected = {}
                if sprout:
                    for values, outcome in reference.lineage(
                        list(lineage.items())
                    ).confidences():
                        expected[values] = outcome.probability
                else:
                    for values, dnf in lineage.items():
                        circuit = reference.engine.compile_circuit(dnf)
                        expected[values] = circuit.evaluate()
                for values, outcome in pairs:
                    checked += 1
                    if abs(outcome.probability - expected[values]) > TOLERANCE:
                        mismatches += 1
                        notes.append(
                            f"instance {index} {name} {values}: "
                            f"{outcome.probability} vs {expected[values]}"
                        )
    return checked, mismatches, notes


def count_pass(seed: int):
    state = State(seed, COUNT_INSTANCES)
    phase = Phase()
    run_ops(state, COUNT_INSTANCES * len(QUERIES), Tracer(True), phase)
    return common.pick_counts(phase, common.QUERY_COUNTS)


def layer_metrics(phase: Phase, tracer):
    return common.engine_self_times(tracer, phase)
