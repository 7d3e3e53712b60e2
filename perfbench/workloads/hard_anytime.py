"""``hard-anytime``: the Fig. 7 hard queries at ε = 0.01 relative.

One op is one TPC-H instance's B2/B9/B20/B21 batch in a fresh
:class:`~repro.ProbDB` (cold memo, no circuits, default
:class:`~repro.EngineConfig` otherwise).  The instances form a pool
generated from the seed at set-up; the loop cycles through it.  The
d-tree, its bounds and the memo do nearly all the work.
"""

from __future__ import annotations

from repro import RELATIVE, EngineConfig, ProbDB

from harness import Phase, closed_loop
from tracing import Tracer
from workloads import tpch_common as common

SCALE_FACTOR = 0.015
POOL = 256
EPSILON = 0.01
QUERIES = ("B2", "B9", "B20", "B21")
#: Instances whose answers are checked against an exact reference.
CHECK_INSTANCES = 6
#: Instances in the count pass (deterministic work counts).
COUNT_INSTANCES = 12


def settings():
    return {
        "scale_factor": SCALE_FACTOR,
        "instances": POOL,
        "queries": list(QUERIES),
        "epsilon": EPSILON,
        "error_kind": RELATIVE,
        "op": "one instance's four-query batch, fresh session",
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
        self.config = EngineConfig(epsilon=EPSILON, error_kind=RELATIVE)


def op(state: State, index: int, tracer, phase: Phase):
    database = state.pool[index % len(state.pool)]
    with ProbDB(database, state.config) as session:
        for _name, query in state.queries:
            pairs = common.confidences(session, query, tracer, phase)
            for _values, outcome in pairs:
                if not (outcome.converged and common.sound(outcome)):
                    return None
    return "batch"


def setup(seed: int) -> State:
    state = State(seed, POOL)
    op(state, 0, Tracer(enabled=False), Phase())  # warm-up: first-call costs
    return state


def teardown(state: State) -> None:
    pass


def run(state: State, seconds: float, tracer) -> Phase:
    phase = Phase()
    closed_loop(seconds, phase, lambda i: op(state, i, tracer, phase))
    return phase


def check(state: State):
    """Every answer's ``[lower, upper]`` holds an exact reference and the
    estimate meets ε (relative) on the first instances."""
    checked = mismatches = 0
    notes = []
    exact_config = EngineConfig()
    for index in range(CHECK_INSTANCES):
        database = state.pool[index]
        with ProbDB(database, state.config) as session, ProbDB(
            database, exact_config
        ) as exact_session:
            for name, query in state.queries:
                approx = dict(session.query(query).confidences())
                exact = dict(exact_session.query(query).confidences())
                if approx.keys() != exact.keys():
                    mismatches += 1
                    notes.append(f"instance {index} {name}: answer sets differ")
                    continue
                for values, outcome in approx.items():
                    truth = exact[values].probability
                    checked += 1
                    ok = (
                        outcome.converged
                        and outcome.lower - 1e-12 <= truth
                        <= outcome.upper + 1e-12
                        and abs(outcome.probability - truth)
                        <= EPSILON * truth + 1e-12
                    )
                    if not ok:
                        mismatches += 1
                        notes.append(
                            f"instance {index} {name} {values}: "
                            f"[{outcome.lower}, {outcome.upper}] "
                            f"est {outcome.probability} vs exact {truth}"
                        )
    return checked, mismatches, notes


def count_pass(seed: int):
    state = State(seed, COUNT_INSTANCES)
    phase = Phase()
    tracer = Tracer(enabled=True)
    for index in range(COUNT_INSTANCES):
        op(state, index, tracer, phase)
    return common.pick_counts(phase, common.QUERY_COUNTS)


def layer_metrics(phase: Phase, tracer):
    return common.engine_self_times(tracer, phase)

