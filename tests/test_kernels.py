"""Differential tests for the vectorized kernel layer.

The contract of :mod:`repro.circuits.kernels` is that vectorization is
an *execution* detail, never a semantics one:

* batched circuit evaluation and bounds are **bit-identical** to the
  scalar :meth:`Circuit.evaluate` / :meth:`Circuit.evaluate_bounds`
  sweeps — on exact, partial, and conditioned circuits alike — because
  every kernel accumulation walks the same operands in the same order
  as the scalar recursion;
* batched gradients agree with :meth:`Circuit.gradients` to ~1e-12
  (the backward sweep accumulates adjoints in a different order, which
  is the one place bit-identity is not promised);
* circuit Monte Carlo is seed-deterministic and plugs into the engine's
  MC rung with the same ``(ε, δ)`` relative-error semantics as aconf;
* everything in this file also runs — and passes — without numpy, the
  batched paths then being literal aliases of the scalar ones.

Like the parallel differential suite, generation is plain seeded
``random.Random`` (``make_group`` is shared), so any failure reproduces
from the seed in its assertion message.
"""

import math
import random

import pytest

from repro import circuits
from repro.circuits import kernels
from repro.circuits.kernels import (
    BACKEND_NUMPY,
    BACKEND_SCALAR,
    CircuitKernel,
    CircuitSampler,
    KernelUnavailableError,
    circuit_monte_carlo,
    kernel_backend,
    numpy_available,
)
from repro.circuits.sweep import (
    SweepResult,
    sweep_bounds,
    sweep_gradients,
    sweep_values,
    what_if_scenarios,
)
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine, EngineConfig
from repro.db import ProbDB

from test_parallel_differential import make_group

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)

GROUPS = ((11, 12), (12, 12), (13, 12))  # (seed, cases) triples
PARTIAL_BUDGET = 6  # small enough to leave residual leaves routinely


def scenario_batch(registry, rng, count, *, skip=()):
    """``count`` random override scenarios over ``registry``.

    Mixes ``None`` (base probabilities), single- and multi-variable
    overrides, and the occasional 0.0/1.0 clamp — the values that
    exercise residual widening and OR complement arithmetic hardest.
    """
    names = [
        name for name in registry.variables() if name not in skip
    ]
    scenarios = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            scenarios.append(None)
            continue
        overrides = {}
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(names)
            pick = rng.random()
            if pick < 0.1:
                overrides[name] = 0.0
            elif pick < 0.2:
                overrides[name] = 1.0
            else:
                overrides[name] = rng.random()
        scenarios.append(overrides)
    return scenarios


def compiled_cases(tag, seed, cases):
    """(circuit, registry, dnf, rng) cases: exact, partial, conditioned."""
    registry, dnfs = make_group(tag, seed, cases)
    engine = ConfidenceEngine(registry)
    rng = random.Random(seed * 1013)
    names = list(registry.variables())
    for dnf in dnfs:
        exact = engine.compile_circuit(dnf)
        yield exact, registry, dnf, rng, ()
        partial = engine.compile_circuit(dnf, max_nodes=PARTIAL_BUDGET)
        yield partial, registry, dnf, rng, ()
        pivot = rng.choice(names)
        conditioned = exact.condition(pivot, rng.random() < 0.5)
        yield conditioned, registry, dnf, rng, (pivot,)


# ----------------------------------------------------------------------
# Batch vs scalar differential sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,cases", GROUPS)
def test_sweep_values_bit_identical(seed, cases):
    """Batched evaluation == scalar evaluation, bit for bit."""
    for circuit, registry, dnf, rng, skip in compiled_cases(
        "kv", seed, cases
    ):
        scenarios = scenario_batch(registry, rng, 6, skip=skip)
        batched = sweep_values(circuit, scenarios)
        scalar = sweep_values(circuit, scenarios, vectorized=False)
        assert batched == scalar, (
            f"seed={seed} dnf={dnf} scenarios={scenarios}: "
            f"{batched} != {scalar}"
        )


@pytest.mark.parametrize("seed,cases", GROUPS)
def test_sweep_bounds_bit_identical(seed, cases):
    """Batched bounds == scalar bounds on exact AND partial circuits."""
    for circuit, registry, dnf, rng, skip in compiled_cases(
        "kb", seed, cases
    ):
        scenarios = scenario_batch(registry, rng, 6, skip=skip)
        batched = sweep_bounds(circuit, scenarios)
        scalar = sweep_bounds(circuit, scenarios, vectorized=False)
        assert batched == scalar, (
            f"seed={seed} dnf={dnf} scenarios={scenarios}: "
            f"{batched} != {scalar}"
        )
        for lower, upper in batched:
            assert 0.0 <= lower <= upper <= 1.0


@pytest.mark.parametrize("seed,cases", GROUPS)
def test_sweep_gradients_close(seed, cases):
    """Batched gradients match the scalar backward sweep to ~1e-12."""
    for circuit, registry, dnf, rng, skip in compiled_cases(
        "kg", seed, cases
    ):
        scenarios = scenario_batch(registry, rng, 4, skip=skip)
        batched = sweep_gradients(circuit, scenarios)
        scalar = sweep_gradients(circuit, scenarios, vectorized=False)
        assert [set(row) for row in batched] == [
            set(row) for row in scalar
        ]
        for row_b, row_s in zip(batched, scalar):
            for name, value in row_b.items():
                assert math.isclose(
                    value, row_s[name], rel_tol=1e-9, abs_tol=1e-12
                ), f"seed={seed} dnf={dnf} var={name}: {value} != {row_s[name]}"


def test_sweep_residual_widening_matches_scalar():
    """Overriding a residual leaf's variable widens per scenario, not
    globally — scenario s touching the leaf must not widen scenario t."""
    registry, dnfs = make_group("kw", 17, 8)
    engine = ConfidenceEngine(registry)
    from repro.core.variables import variable_name

    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf, max_nodes=PARTIAL_BUDGET)
        residual_vids = set().union(
            *(vids for _lo, _hi, vids in circuit.residuals), frozenset()
        )
        if not residual_vids:
            continue
        touched = {variable_name(next(iter(residual_vids))): 0.5}
        scenarios = [None, touched, None]
        assert sweep_bounds(circuit, scenarios) == sweep_bounds(
            circuit, scenarios, vectorized=False
        )
        assert sweep_bounds(circuit, [None]) == [
            sweep_bounds(circuit, scenarios)[0]
        ]


def test_sweep_rejects_unknown_variable():
    """Scenario validation is the scalar evaluate() validation."""
    registry, dnfs = make_group("ku", 23, 1)
    circuit = ConfidenceEngine(registry).compile_circuit(dnfs[0])
    with pytest.raises(KeyError):
        sweep_values(circuit, [None, {"no-such-variable": 0.5}])


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
@needs_numpy
def test_evaluate_batch_matches_point_evaluate():
    """The raw kernel on hand-built matrices equals circuit.evaluate."""
    registry, dnfs = make_group("kp", 31, 10)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf)
        kernel = CircuitKernel(circuit)
        matrix = kernel.base_matrix(3)
        values = kernel.evaluate_batch(matrix)
        expected = circuit.evaluate()
        assert list(values) == [expected] * 3


# ----------------------------------------------------------------------
# Monte Carlo on circuits
# ----------------------------------------------------------------------
@needs_numpy
def test_sample_worlds_reproducible():
    registry, dnfs = make_group("km", 43, 5)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf)
        kernel = CircuitKernel(circuit)
        first = kernel.sample_worlds(256, rng_seed=7)
        second = kernel.sample_worlds(256, rng_seed=7)
        assert (first == second).all()
        assert set(first.tolist()) <= {0.0, 1.0}
        # The sample mean estimates P(Φ) without bias.
        truth = brute_force_probability(dnf, registry)
        mean = kernel.sample_worlds(4096, rng_seed=11).mean()
        assert abs(mean - truth) < 0.05


@needs_numpy
def test_sample_worlds_requires_exact_circuit():
    registry, dnfs = make_group("kr", 47, 6)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        partial = engine.compile_circuit(dnf, max_nodes=PARTIAL_BUDGET)
        if partial.is_exact:
            continue
        with pytest.raises(ValueError):
            CircuitKernel(partial).sample_worlds(8, rng_seed=1)
        return
    pytest.skip("no partial circuit produced under the budget")


@needs_numpy
def test_circuit_monte_carlo_seeded_and_sound():
    registry, dnfs = make_group("kd", 53, 5)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf)
        first = circuit_monte_carlo(
            circuit, epsilon=0.1, delta=0.01, seed=17
        )
        second = circuit_monte_carlo(
            circuit, epsilon=0.1, delta=0.01, seed=17
        )
        assert first.estimate == second.estimate
        assert first.samples == second.samples
        truth = brute_force_probability(dnf, registry)
        # (ε, δ) relative guarantee, checked loosely (δ slack).
        assert abs(first.estimate - truth) <= 0.1 * truth + 0.05


@needs_numpy
def test_circuit_sampler_chunks_are_deterministic():
    registry, dnfs = make_group("ks", 59, 1)
    circuit = ConfidenceEngine(registry).compile_circuit(dnfs[0])
    one = CircuitSampler(circuit, seed=3, chunk=16)
    two = CircuitSampler(circuit, seed=3, chunk=64)
    draws_one = [one.sample_unit() for _ in range(200)]
    draws_two = [two.sample_unit() for _ in range(200)]
    assert draws_one == draws_two  # chunking is invisible


# ----------------------------------------------------------------------
# Engine integration: the MC rung rides the circuit sampler
# ----------------------------------------------------------------------
def hard_instance(seed=5):
    """A correlated DNF whose Fig. 3 bounds stay loose at 0 steps."""
    rng = random.Random(seed)
    registry = VariableRegistry.from_boolean_probabilities(
        {f"h{seed}x{i}": rng.uniform(0.3, 0.7) for i in range(10)}
    )
    names = list(registry.variables())
    dnf = DNF(
        Clause({name: True for name in rng.sample(names, 3)})
        for _ in range(25)
    )
    return registry, dnf


def test_engine_mc_routes_through_circuit_sampler():
    registry, dnf = hard_instance()
    config = EngineConfig(
        epsilon=0.01, error_kind="relative", max_steps=0, rng_seed=99
    )
    engine = ConfidenceEngine(registry, config)
    circuit = engine.compile_circuit(dnf)
    engine.circuit_source = {dnf: circuit}.get

    result = engine.compute(dnf)
    assert result.strategy == "mc"
    expected_sampler = (
        "circuit" if kernel_backend(None) == BACKEND_NUMPY else "karp-luby"
    )
    assert result.details["mc_sampler"] == expected_sampler
    # rng_seed purity: a pure function of (seed, lineage).
    repeat = engine.compute(dnf)
    assert repeat.probability == result.probability
    truth = brute_force_probability(dnf, registry)
    assert result.lower <= truth <= result.upper


def test_engine_mc_fallback_without_circuit_is_karp_luby():
    registry, dnf = hard_instance()
    config = EngineConfig(
        epsilon=0.01, error_kind="relative", max_steps=0, rng_seed=99
    )
    engine = ConfidenceEngine(registry, config)
    result = engine.compute(dnf)
    assert result.strategy == "mc"
    assert result.details["mc_sampler"] == "karp-luby"

    # vectorized=False keeps the karp-luby sampler even with a circuit.
    scalar_engine = ConfidenceEngine(
        registry, config.replace(vectorized=False)
    )
    scalar_engine.circuit_source = {
        dnf: ConfidenceEngine(registry, config).compile_circuit(dnf)
    }.get
    scalar = scalar_engine.compute(dnf)
    assert scalar.strategy == "mc"
    assert scalar.details["mc_sampler"] == "karp-luby"


# ----------------------------------------------------------------------
# Session sweeps and the SweepResult container
# ----------------------------------------------------------------------
def test_session_sweep_and_what_if_grid():
    registry, dnfs = make_group("kt", 61, 3)
    session = ProbDB.from_registry(registry, EngineConfig(epsilon=0.0))
    answers = [((f"a{i}",), dnf) for i, dnf in enumerate(dnfs)]
    result = session.lineage(answers)

    names = list(registry.variables())
    scenarios = [None, {names[0]: 0.25}, {names[1]: 0.75, names[2]: 0.0}]
    swept = result.sweep(scenarios)
    scalar = result.sweep(scenarios, vectorized=False)
    assert swept.values == scalar.values
    assert swept.backend in (BACKEND_NUMPY, BACKEND_SCALAR)
    assert scalar.backend == BACKEND_SCALAR

    assert len(swept) == len(dnfs)
    assert swept.scenario_count == len(scenarios)
    for i, dnf in enumerate(dnfs):
        circuit = session.engine.compile_circuit(dnf)
        expected = [circuit.evaluate(s) for s in scenarios]
        assert swept.row((f"a{i}",)) == expected
    with pytest.raises(KeyError):
        swept.row(("missing",))
    assert swept.column(0) == [
        (answer, swept.values[i][0])
        for i, answer in enumerate(swept.answers)
    ]
    assert "scenarios" in repr(swept)

    grid = result.what_if_grid(names[0], [0.0, 0.5, 1.0])
    expected = result.sweep(what_if_scenarios(names[0], [0.0, 0.5, 1.0]))
    assert grid.values == expected.values


# ----------------------------------------------------------------------
# Backend selection and degradation
# ----------------------------------------------------------------------
def test_kernel_backend_resolution():
    resolved = kernel_backend(None)
    if numpy_available():
        assert resolved == BACKEND_NUMPY
        assert kernel_backend(True) == BACKEND_NUMPY
    else:
        assert resolved == BACKEND_SCALAR
        with pytest.raises(KernelUnavailableError):
            kernel_backend(True)
    assert kernel_backend(False) == BACKEND_SCALAR


def test_describe_reports_kernel_backend():
    description = EngineConfig().describe()
    assert description["kernel_backend"] == kernel_backend(None)
    assert (
        EngineConfig(vectorized=False).describe()["kernel_backend"]
        == BACKEND_SCALAR
    )


def test_vectorized_true_without_numpy_raises(monkeypatch):
    monkeypatch.setattr(kernels, "_np", None)
    with pytest.raises(KernelUnavailableError) as excinfo:
        EngineConfig(vectorized=True)
    message = str(excinfo.value)
    assert "repro[fast]" in message and "vectorized" in message
    # Auto mode degrades silently instead.
    assert EngineConfig().describe()["kernel_backend"] == BACKEND_SCALAR


def test_sweeps_degrade_without_numpy(monkeypatch):
    registry, dnfs = make_group("kz", 67, 4)
    engine = ConfidenceEngine(registry)
    circuits_list = [engine.compile_circuit(dnf) for dnf in dnfs]
    with_numpy = [
        sweep_values(c, [None, {next(iter(registry.variables())): 0.5}])
        for c in circuits_list
    ]
    monkeypatch.setattr(kernels, "_np", None)
    without = [
        sweep_values(c, [None, {next(iter(registry.variables())): 0.5}])
        for c in circuits_list
    ]
    assert with_numpy == without


def test_kernel_symbols_exported():
    for name in (
        "CircuitKernel",
        "CircuitSampler",
        "KernelUnavailableError",
        "SweepResult",
        "kernel_backend",
    ):
        assert name in circuits.__all__
        import repro

        assert name in repro.__all__
