"""The benchmark's workloads, by the name ``--workload`` takes.

Each module exposes ``settings()``, ``setup(seed)``, ``teardown(state)``,
``run(state, seconds, tracer)``, ``check(state)``, ``count_pass(seed)``
and ``layer_metrics(phase, tracer)``; a workload may name the trace
metrics that do not apply to it, with the reason, in ``NOT_APPLICABLE``.
"""

from workloads import (
    hard_anytime,
    mutate_mixed,
    serve_mixed,
    tractable_exact,
)

WORKLOADS = {
    "hard-anytime": hard_anytime,
    "tractable-exact": tractable_exact,
    "serve-mixed": serve_mixed,
    "mutate-mixed": mutate_mixed,
}
