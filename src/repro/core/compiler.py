"""Exhaustive compilation of DNFs into complete d-trees (paper, Fig. 1).

The compiler applies, in order: subsumption removal, independent-or
partitioning, independent-and factorization, and Shannon expansion on a
pivot chosen by a pluggable variable selector.  The result is a complete
d-tree whose probability is computable in one linear pass (Prop. 4.3).

This is the *non*-incremental path: it materialises the whole tree and is
used for exact computation on tractable lineage (Sec. VI.B), for tests, and
as the building block the incremental approximation algorithm of
:mod:`repro.core.approx` mirrors frame by frame.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Hashable, Iterator, List, Optional

from .decompositions import (
    independent_and_factorization,
    independent_or_partition,
    shannon_expansion,
)
from .dnf import DNF
from .dtree import (
    DTree,
    ExclusiveOrNode,
    IndependentAndNode,
    IndependentOrNode,
    LeafNode,
)
from .events import Clause
from .orders import VariableSelector, max_frequency_choice
from .variables import VariableRegistry

__all__ = [
    "compile_dnf",
    "raised_recursion_limit",
    "CompilationBudgetExceeded",
    "CompilationStats",
]


@contextmanager
def raised_recursion_limit(needed: int) -> Iterator[None]:
    """Temporarily raise the interpreter recursion limit to ``needed``.

    Compiler recursion depth is proportional to d-tree depth, and IQ
    lineage produces ``⊕`` chains one node per literal (Thm. 6.9), so
    deep tractable instances need headroom.  No-op when the current
    limit already suffices; always restored on exit.  Shared by the
    exact d-tree path and the circuit compiler.
    """
    old_limit = sys.getrecursionlimit()
    if needed > old_limit:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        if needed > old_limit:
            sys.setrecursionlimit(old_limit)


class CompilationBudgetExceeded(RuntimeError):
    """Raised when compilation would exceed the node budget."""


class CompilationStats:
    """Counters collected during exhaustive compilation."""

    __slots__ = ("nodes", "shannon_expansions", "subsumed_clauses")

    def __init__(self) -> None:
        self.nodes = 0
        self.shannon_expansions = 0
        self.subsumed_clauses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompilationStats(nodes={self.nodes}, "
            f"shannon={self.shannon_expansions}, "
            f"subsumed={self.subsumed_clauses})"
        )


def compile_dnf(
    dnf: DNF,
    registry: VariableRegistry,
    *,
    choose_variable: Optional[VariableSelector] = None,
    max_nodes: Optional[int] = None,
    stats: Optional[CompilationStats] = None,
) -> DTree:
    """Compile a non-empty DNF into a complete d-tree (Fig. 1).

    ``choose_variable`` picks Shannon pivots (default: most frequent
    variable).  ``max_nodes`` aborts runaway compilations with
    :class:`CompilationBudgetExceeded` — the incremental algorithm is the
    right tool for those inputs.
    """
    if dnf.is_false():
        raise ValueError("cannot compile the empty (unsatisfiable) DNF")
    selector = choose_variable or max_frequency_choice
    stats = stats if stats is not None else CompilationStats()
    return _compile(dnf, registry, selector, max_nodes, stats)


def _charge(stats: CompilationStats, max_nodes: Optional[int]) -> None:
    stats.nodes += 1
    if max_nodes is not None and stats.nodes > max_nodes:
        raise CompilationBudgetExceeded(
            f"compilation exceeded {max_nodes} nodes"
        )


def _compile(
    dnf: DNF,
    registry: VariableRegistry,
    selector: VariableSelector,
    max_nodes: Optional[int],
    stats: CompilationStats,
    reduced: bool = False,
) -> DTree:
    # Fig. 1 head: a DNF containing the empty clause is the constant true.
    if dnf.is_true():
        _charge(stats, max_nodes)
        return LeafNode(DNF.true())

    # Step 1: remove subsumed clauses — unless ``dnf`` is known to be
    # subsumption-free: ⊗ components and ⊙ factors of a reduced DNF are,
    # and so is every Shannon cofactor its branch marks ``reduced``.
    if not reduced:
        subsumption_free = dnf.remove_subsumed()
        stats.subsumed_clauses += len(dnf) - len(subsumption_free)
        dnf = subsumption_free
        if dnf.is_true():
            _charge(stats, max_nodes)
            return LeafNode(DNF.true())

    if dnf.is_single_clause():
        _charge(stats, max_nodes)
        return LeafNode(dnf)

    # Step 2: independent-or.
    components = independent_or_partition(dnf)
    if len(components) > 1:
        _charge(stats, max_nodes)
        children = [
            _compile(component, registry, selector, max_nodes, stats, True)
            for component in components
        ]
        return IndependentOrNode(children)

    # Step 3: independent-and.
    factors = independent_and_factorization(dnf)
    if factors is not None:
        _charge(stats, max_nodes)
        children = [
            _compile(factor, registry, selector, max_nodes, stats, True)
            for factor in factors
        ]
        return IndependentAndNode(children)

    # Step 4: Shannon expansion.
    pivot = selector(dnf)
    stats.shannon_expansions += 1
    _charge(stats, max_nodes)
    branches = shannon_expansion(dnf, pivot, registry)
    children: List[DTree] = []
    for branch in branches:
        clause_leaf = LeafNode(
            DNF((Clause({branch.variable: branch.value}),))
        )
        _charge(stats, max_nodes)
        if branch.cofactor.is_true():
            # {x=a} ⊙ ⊤ is just the clause itself.
            children.append(clause_leaf)
            continue
        cofactor_tree = _compile(
            branch.cofactor,
            registry,
            selector,
            max_nodes,
            stats,
            branch.reduced,
        )
        children.append(IndependentAndNode([clause_leaf, cofactor_tree]))
    if len(children) == 1:
        return children[0]
    return ExclusiveOrNode(children)
