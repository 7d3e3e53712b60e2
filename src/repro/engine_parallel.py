"""Worker pools and worker-side execution for sharded batches.

The paper's anytime d-tree decomposition is embarrassingly parallel
across answer tuples: each lineage DNF is an independent computation
against a shared, read-only probability space.
:class:`~repro.engine.BatchComputation` exploits it when built with
``workers > 1``: every round it deals its tuples across a pool of
workers, each running a full :class:`~repro.engine.ConfidenceEngine`
(with its own :class:`~repro.core.memo.DecompositionCache`), and merges
the per-shard results deterministically.  This module holds the parts
of that which live below the batch — the engine-lifetime
:class:`WorkerPool`, the task bodies the workers run, and the
interned-id wire codec — so the scheduling itself exists once, in the
batch.  ``workers``/``executor_kind`` on
:class:`~repro.engine.EngineConfig` (or the per-call overrides) select
it; the default ``workers=1`` keeps every path serial.

Executor kinds
--------------
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Escapes the
    GIL — the only way CPU-bound d-tree work actually scales — at the
    cost of pool start-up and per-task pickling.  The pool initializer
    ships three things **once per worker**, not per task: the
    process-wide intern-table snapshot
    (:func:`~repro.core.variables.intern_snapshot`), the registry, and
    the engine config.  After the snapshot is installed, clauses and
    DNFs cross the boundary as bare integer-id tuples (see
    ``Clause.__reduce__``), which keeps task payloads tiny.
``"thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor` over per-shard
    engines in the current process.  No pickling, no start-up cost, one
    shared intern table — but GIL-bound, so it parallelises nothing
    CPU-heavy.  It exists for cheap differential testing of the sharded
    machinery and for workloads dominated by waiting (deadlines).

Work-stealing refinement schedule
---------------------------------
Refinement proceeds in rounds.  Each round the batch collects the
refinable tuples (unconverged, budget headroom left), orders them by
certified interval width — widest, i.e. most ambiguous, first — and
deals the top ``shards`` of them round-robin across the shards.  A tuple
is *not* pinned to the shard that previously refined it: the widest
intervals are rebalanced across the whole pool every round, so one shard
stuck with all the hard tuples sheds them to idle siblings (at the price
of re-warming a different worker's cache, which the decomposition memo
makes cheap).  Within a shard, the dealt tuples are processed in that
same width order.

Determinism
-----------
Shard assignment, round scheduling, and merge order are pure functions
of the input batch — no reliance on pool completion order.  Exact
strategies (trivial / read-once / converged ``ε = 0`` d-tree) therefore
return bit-identical probabilities to the serial path; anytime runs
return certified bounds that are sound by the same argument as the
serial path's (and are intersected monotonically across rounds).  The
differential suite in ``tests/test_parallel_differential.py`` enforces
both properties.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, List, Optional, Sequence, Tuple

from .circuits.serialize import encode_cache_slice, encode_circuit
from .core import clock
from .core.dnf import DNF
from .core.events import Clause
from .core.variables import (
    InternSnapshot,
    VariableRegistry,
    install_intern_snapshot,
    intern_snapshot,
    intern_version,
)
from .engine import ConfidenceEngine, EngineConfig, EngineResult

__all__ = ["WorkerPool", "build_worker_engine"]

#: ``(index, dnf, step budget)`` — one unit of shard work.  The process
#: path ships the DNF through the interned-id codec below instead of
#: the (safe but heavier) name-based pickle encoding.
_WorkItem = Tuple[int, object, Optional[int]]

#: A DNF as nested interned-id tuples — one tuple of small ints per
#: clause.  Valid only between snapshot-synchronised processes.
_EncodedDNF = Tuple[Tuple[int, ...], ...]


def _encode_dnf(dnf: DNF) -> _EncodedDNF:
    """Cheap wire form for pool tasks: bare atom-id tuples.

    Public ``pickle`` of a DNF re-interns by variable/value names so it
    is safe anywhere; this codec skips that for the pool's hot path,
    which is sound because every pool worker replayed the coordinator's
    intern snapshot in its initializer.
    """
    return tuple(clause.atom_ids for clause in dnf.sorted_clauses())


def _decode_dnf(encoded: _EncodedDNF) -> DNF:
    return DNF(Clause._from_atom_ids(ids) for ids in encoded)


#: ``(per-item results, cache stats, worker key)`` — one task's report.
_ShardReport = Tuple[List[Tuple[int, EngineResult]], Dict[str, int], object]

#: ``(index, circuit record)`` — one compiled and serialized final
#: answer; a ``None`` record means the worker could not serialize it
#: (coordinator falls back to compiling that index itself).
_CircuitPayload = Tuple[int, Optional[bytes]]
#: ``(circuit payloads, union cache slice, cache stats, worker key)``.
_CompileReport = Tuple[
    List[_CircuitPayload], Optional[bytes], Dict[str, int], object
]

# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: The per-process engine built by :func:`_process_worker_init`.  One per
#: pool worker, owning its own DecompositionCache for the pool's
#: lifetime, so repeated refinement rounds resume instead of restarting.
_WORKER_ENGINE: Optional[ConfidenceEngine] = None


def build_worker_engine(
    snapshot: InternSnapshot,
    registry: VariableRegistry,
    config: EngineConfig,
) -> ConfidenceEngine:
    """Install a coordinator's intern snapshot and build a worker engine.

    The one true recipe for standing up a shard process: replay the
    intern-table snapshot first (so id-encoded clauses deserialise
    correctly and ids stay stable both ways), then build a private
    engine + cache on top.  Used by this module's pool initializer and
    by :mod:`repro.serving.fleet` worker processes, which must agree
    with the pools on intern-id semantics to share persisted stores.
    """
    install_intern_snapshot(snapshot)
    return ConfidenceEngine(registry, config)


def _process_worker_init(
    snapshot: InternSnapshot,
    registry: VariableRegistry,
    config: EngineConfig,
) -> None:
    """Process-pool initializer: runs once per worker process."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = build_worker_engine(snapshot, registry, config)


def _run_items(
    engine: ConfidenceEngine,
    items: Sequence[_WorkItem],
    epsilon: float,
    error_kind: str,
    deadline_remaining: Optional[float],
    worker_key: object,
) -> _ShardReport:
    """Compute every item of one shard task, in order, on one engine.

    The MC rung is always disabled here: sampling fallback runs exactly
    once, on the coordinator, after all refinement (so seeded runs don't
    depend on shard assignment).
    """
    started = clock.monotonic()
    out: List[Tuple[int, EngineResult]] = []
    for index, dnf, budget in items:
        remaining = (
            None
            if deadline_remaining is None
            else max(
                deadline_remaining - (clock.monotonic() - started), 0.0
            )
        )
        result = engine.compute(
            dnf,
            epsilon=epsilon,
            error_kind=error_kind,
            max_steps=budget,
            deadline_seconds=remaining,
            mc_fallback=False,
        )
        out.append((index, result))
    return out, engine.cache.stats(), worker_key


def _process_run_items(
    items: Sequence[_WorkItem],
    epsilon: float,
    error_kind: str,
    deadline_remaining: Optional[float],
) -> _ShardReport:
    """Process-pool task body: decode the id-encoded DNFs and run them
    on the per-process engine."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker engine missing: initializer did not run")
    decoded = [
        (index, _decode_dnf(encoded), budget)
        for index, encoded, budget in items
    ]
    return _run_items(
        engine, decoded, epsilon, error_kind, deadline_remaining,
        os.getpid(),
    )


def _compile_items(
    engine: ConfidenceEngine,
    items: Sequence[_WorkItem],
    worker_key: object,
) -> _CompileReport:
    """Compile one shard's final-answer circuits and serialize them.

    Runs on the same worker (and cache) that just decomposed the
    lineage, so compilation is a warm replay.  Each circuit ships as a
    name-based :mod:`repro.circuits.serialize` record — valid in any
    process — and the whole shard ships **one union slice** of the
    decomposition-cache cones its compiles walked (shared cones are
    serialized once), so the coordinator can both attach the circuits
    *and* warm its own cache without re-decomposing anything.

    Thread pools run the very same codec even though they could hand
    objects across directly — deliberately: the cheap thread-pool
    differential suites then exercise exactly the wire path the
    process pool uses, and thread pools are the testing/deadline
    executor, not the CPU-throughput one.
    """
    out: List[_CircuitPayload] = []
    compiled: List[DNF] = []
    for index, dnf, max_nodes in items:
        circuit = engine.compile_circuit(dnf, max_nodes=max_nodes)
        try:
            payload = encode_circuit(circuit)
        except Exception:
            # Unserializable variable names (possible on thread pools,
            # which never pickle anything): fall back to a coordinator
            # compile for this index rather than failing the batch.
            out.append((index, None))
            continue
        out.append((index, payload))
        compiled.append(dnf)
    slice_payload: Optional[bytes] = None
    if compiled:
        try:
            slice_payload = encode_cache_slice(engine.cache, *compiled)
        except Exception:
            slice_payload = None  # circuits still ship; cache stays cold
    return out, slice_payload, engine.cache.stats(), worker_key


def _process_compile_items(items: Sequence[_WorkItem]) -> _CompileReport:
    """Process-pool task body for the final circuit-compile round."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker engine missing: initializer did not run")
    decoded = [
        (index, _decode_dnf(encoded), budget)
        for index, encoded, budget in items
    ]
    return _compile_items(engine, decoded, os.getpid())


def _worker_probe(encoded: _EncodedDNF):
    """Decode an id-encoded DNF and report structure *and* ids.

    Test hook for the pickle/snapshot property suite: a spawn-started
    worker (fresh, empty intern tables until the initializer replayed
    the snapshot) decodes bare atom ids and reports what it sees —
    the parent asserts the ids mapped back to the very same variables
    and values, and that re-interning them yields the same ids.
    """
    dnf = _decode_dnf(encoded)
    return [
        (
            clause.atom_ids,
            sorted(clause.items(), key=lambda item: repr(item)),
        )
        for clause in dnf.sorted_clauses()
    ]


# ----------------------------------------------------------------------
# Engine-lifetime worker pools
# ----------------------------------------------------------------------
class WorkerPool:
    """An executor (plus per-worker engines) amortized across batches.

    A pool per batch would make a ``workers=N`` session serving many
    small queries pay pool start-up per call, with every worker's
    decomposition cache restarting cold.  A :class:`WorkerPool` instead
    lives on the :class:`~repro.engine.ConfidenceEngine`
    (``engine._worker_pools``) for the engine's lifetime and is shared
    by every sharded :class:`~repro.engine.BatchComputation` the engine
    runs.

    Staleness: a process pool ships the intern-table snapshot once per
    worker at start-up, and tasks cross the boundary as bare interned
    ids — valid only while the coordinator's tables match the shipped
    snapshot.  The pool therefore records its snapshot's
    :func:`~repro.core.variables.intern_version`;
    :func:`acquire_worker_pool` compares it per round and rebuilds the
    pool (re-shipping a fresh snapshot) only when new atoms were
    interned since pool start.  Thread pools share the process's
    tables and never go stale; their per-shard engines (and caches)
    persist warm across batches.

    Concurrency: a shared pool serializes *rounds* via
    :attr:`round_lock` — two batches driving one engine from different
    threads interleave whole rounds instead of racing the per-shard
    worker engines (which are single-threaded by design), and a stale
    pool is only ever closed between rounds, never under one.
    """

    __slots__ = (
        "kind",
        "size",
        "registry",
        "config",
        "executor",
        "thread_engines",
        "snapshot_version",
        "round_lock",
        "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        registry: VariableRegistry,
        config: EngineConfig,
        kind: str,
        size: int,
    ) -> None:
        self.kind = kind
        self.size = size
        self.registry = registry
        self.config = config
        self.thread_engines: Optional[List[ConfidenceEngine]] = None
        self.snapshot_version: Optional[Tuple[int, int]] = None
        self.round_lock = threading.Lock()
        if kind == "thread":
            self.thread_engines = [
                ConfidenceEngine(registry, config) for _ in range(size)
            ]
            executor: Executor = ThreadPoolExecutor(
                max_workers=size,
                thread_name_prefix="repro-shard",
            )
        else:
            try:
                payload = pickle.dumps((registry, config))
            except Exception as exc:
                raise ValueError(
                    "process-pool execution needs a picklable registry "
                    "and EngineConfig; choose_variable closures are the "
                    "usual culprit — use a picklable selector (e.g. "
                    "repro.core.orders.CompositeSelector) or "
                    "executor_kind='thread'"
                ) from exc
            del payload
            mp_context = None
            import multiprocessing

            # fork (where available) shares the parent's pages — intern
            # tables included — making the snapshot install a cheap
            # verification replay; spawn pays a fresh-interpreter start
            # but replays the snapshot for real.
            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
            snapshot = intern_snapshot()
            # Version derived from the snapshot itself, so the staleness
            # comparison is exact even if another thread interns between
            # the snapshot and this assignment.
            self.snapshot_version = (len(snapshot[0]), len(snapshot[1]))
            executor = ProcessPoolExecutor(
                max_workers=size,
                mp_context=mp_context,
                initializer=_process_worker_init,
                initargs=(snapshot, registry, config),
            )
        self.executor = executor
        # GC backstop: must capture the executor, never ``self``.
        self._finalizer = weakref.finalize(
            self, _shutdown_executor, executor
        )

    def serves(self, kind: str, shards: int, config: EngineConfig) -> bool:
        """Can this pool run a round of ``shards`` tasks as configured?"""
        if self.kind != kind or self.size < shards:
            return False
        if self.config != config:
            return False
        if self.kind == "process":
            return self.snapshot_version == intern_version()
        return True

    def submit(
        self,
        shard: int,
        items: Sequence[_WorkItem],
        task_args: Tuple[object, ...],
        compile_round: bool,
    ) -> Future:
        """Queue one shard task: a refinement run (``task_args`` =
        ``(epsilon, error_kind, deadline_remaining)``) or, with
        ``compile_round``, the final circuit compile (no ``task_args``).

        Thread pools run the task on the shard's own engine; process
        pools ship the DNFs id-encoded and run on the per-process engine
        installed by the initializer.
        """
        if self.kind == "thread":
            engines = self.thread_engines
            assert engines is not None
            task = _compile_items if compile_round else _run_items
            return self.executor.submit(
                task, engines[shard], items, *task_args, shard
            )
        encoded = [
            (index, _encode_dnf(dnf), budget)
            for index, dnf, budget in items
        ]
        task = _process_compile_items if compile_round else _process_run_items
        return self.executor.submit(task, encoded, *task_args)

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()  # runs _shutdown_executor exactly once
        self.thread_engines = None

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.size} {self.kind} workers, "
            f"snapshot_version={self.snapshot_version})"
        )


def acquire_worker_pool(
    engine: ConfidenceEngine,
    kind: str,
    shards: int,
    size: int,
    config: EngineConfig,
) -> WorkerPool:
    """The engine's worker pool for ``kind``, (re)built only when it
    cannot serve.

    One slot per executor kind (interleaved thread- and process-pool
    batches don't evict each other); within a kind, reuse requires the
    same shard config, enough workers, and — for process pools — no
    atoms interned since the pool's snapshot was shipped.  On a
    rebuild the old pool is shut down first; ``engine._pool_starts``
    counts builds (observable by tests and benchmarks as the
    amortization measure).
    """
    with engine._pool_lock:
        stale = engine._worker_pools.get(kind)
        if stale is not None and stale.serves(kind, shards, config):
            return stale
        if stale is not None:
            del engine._worker_pools[kind]
        pool = WorkerPool(
            engine.registry, config, kind, max(shards, size)
        )
        engine._worker_pools[kind] = pool
        engine._pool_starts += 1
    if stale is not None:
        # Shut the displaced pool down outside the engine lock, and
        # never mid-round: a concurrent batch may be inside one (it
        # re-acquires per round and heals onto the new pool).  The
        # only lock nesting anywhere is round_lock -> engine lock
        # (_evict_pool), so waiting on round_lock here cannot deadlock.
        with stale.round_lock:
            stale.close()
    return pool


def _shutdown_executor(executor: Executor) -> None:
    # wait=True: rounds are synchronous, so nothing is ever in flight
    # here, and draining the pool's threads deterministically matters —
    # a stray worker thread would make a later fork() warn on 3.12+.
    executor.shutdown(wait=True, cancel_futures=True)
