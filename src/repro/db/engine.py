"""Conjunctive-query evaluation with lineage tracking.

The engine evaluates a :class:`~repro.db.cq.ConjunctiveQuery` against a
:class:`~repro.db.database.Database` and returns, per distinct answer
tuple, the lineage formula whose probability is the tuple's confidence —
the reduction from query evaluation to DNF probability that the paper's
Section VI.A recalls.

Evaluation runs the query's cached slot plan (:attr:`ConjunctiveQuery.plan
<repro.db.cq.ConjunctiveQuery.plan>`): a partial binding is a tuple of
values indexed by variable slot, and each subgoal extends it by the values
of the variables it binds first.  Joins are hash-based: a subgoal indexes
the rows that pass its constant and repeated-variable filters by its
join-key positions, and the inequalities it completes are checked on the
extended tuple.  Rows are visited in relation order; lineage is conjoined
along a join path and disjoined across derivations of the same answer, in
first-derivation order.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..core.dnf import DNF
from ..core.formulas import Formula, conj, disj
from ..core.orders import VariableSelector, make_variable_selector
from .cq import ConjunctiveQuery, checks_hold, group_rows
from .database import Database

__all__ = [
    "evaluate",
    "evaluate_to_dnf",
    "answer_selector",
    "QueryAnswer",
]


class QueryAnswer:
    """One answer tuple with its lineage."""

    __slots__ = ("values", "lineage")

    def __init__(self, values: Tuple[Hashable, ...], lineage: Formula) -> None:
        self.values = values
        self.lineage = lineage

    def __repr__(self) -> str:
        return f"QueryAnswer({self.values!r})"


def evaluate(query: ConjunctiveQuery, database: Database) -> List[QueryAnswer]:
    """All distinct answers of ``query`` with ``∨``-merged lineage."""
    plan = query.plan
    # Partial results: (slot binding, lineage) pairs.
    partials: List[Tuple[Tuple[Hashable, ...], Formula]] = [((), None)]

    for index, step in enumerate(plan.subgoals):
        relation = database[step.relation]
        if len(relation.attributes) != step.arity:
            raise ValueError(
                f"subgoal {query.subgoals[index]!r} has {step.arity} terms "
                f"but relation {relation.name!r} has "
                f"{len(relation.attributes)} attributes"
            )
        index_map = group_rows(step.rows(relation.rows), step.join_key)
        binding_key = step.binding_key
        new_values = step.new_values
        checks = step.checks
        next_partials: List[Tuple[Tuple[Hashable, ...], Formula]] = []
        append = next_partials.append
        for binding, lineage in partials:
            for row_values, row_lineage in index_map.get(
                binding_key(binding), ()
            ):
                new_binding = binding + new_values(row_values)
                if checks and not checks_hold(checks, new_binding):
                    continue
                append(
                    (
                        new_binding,
                        row_lineage
                        if lineage is None
                        else conj(lineage, row_lineage),
                    )
                )
        partials = next_partials
        if not partials:
            break

    # Group by head values; Boolean queries group everything into ().
    head = plan.head_slots
    merged: Dict[Tuple[Hashable, ...], List[Formula]] = {}
    for binding, lineage in partials:
        answer = tuple([binding[slot] for slot in head])
        derivations = merged.get(answer)
        if derivations is None:
            merged[answer] = derivations = []
        derivations.append(lineage if lineage is not None else conj())
    return [
        QueryAnswer(answer, disj(*derivations))
        for answer, derivations in merged.items()
    ]


def evaluate_to_dnf(
    query: ConjunctiveQuery, database: Database
) -> List[Tuple[Tuple[Hashable, ...], DNF]]:
    """Answers as ``(tuple, lineage DNF)`` pairs."""
    return [
        (answer.values, answer.lineage.to_dnf())
        for answer in evaluate(query, database)
    ]


def answer_selector(database: Database) -> VariableSelector:
    """A Shannon-pivot selector wired with this database's provenance.

    Tries the Lemma 6.8 IQ order first (using the ``variable → relation``
    origins of the database), falling back to max frequency — the
    composite strategy of Section IV.
    """
    return make_variable_selector(database.variable_origins())
