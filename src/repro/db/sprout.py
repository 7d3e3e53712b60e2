"""SPROUT-style exact confidence computation for hierarchical queries.

The paper benchmarks its generic d-tree operator against SPROUT, the
query-aware exact operator of [Olteanu, Huang, Koch; ICDE 2009]: for
hierarchical conjunctive queries without self-joins on tuple-independent
databases, confidence can be computed *extensionally*, by an evaluation
plan derived from the query's hierarchy — without ever materialising
lineage.

This module reproduces that operator:

* an answer's confidence is computed by recursive decomposition of the
  (head-instantiated, hence Boolean) query:

  - subgoals that share no unbound variable form independent groups whose
    probabilities multiply (independent-and on disjoint relations — no
    self-joins means distinct relations, hence disjoint tuple variables);
  - within a group, a *root* variable occurring in every subgoal is
    eliminated: distinct root values touch disjoint sets of tuples, so the
    group probability is an independent-or over the root's candidate
    values;
  - a fully bound subgoal contributes the probability that at least one
    matching row is present.

The recursion mirrors SPROUT's safe plans, and so does its cost: each
subgoal's rows are filtered once per query (constants, repeated
variables, local selections) and grouped by the head-variable values, so
an answer reads its rows by key; the recursion then partitions once per
level, splitting each member's rows by the root value in one pass.  Row
probabilities are computed only for rows some answer reaches.  A
non-hierarchical query (or one with self-joins) is rejected with
:class:`UnsafeQueryError` — that is precisely when the d-tree algorithm is
needed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Hashable, List, Sequence, Set, Tuple

from ..core.formulas import AtomNode, Formula, TrueNode
from ..core.variables import VariableRegistry
from .cq import ConjunctiveQuery, Row, SubgoalPlan, group_rows
from .database import Database
from .engine import evaluate

__all__ = ["sprout_confidence", "UnsafeQueryError"]


class UnsafeQueryError(ValueError):
    """The query is outside SPROUT's tractable class."""


def _row_probability(lineage: Formula, registry: VariableRegistry) -> float:
    """Probability of one tuple-independent row's lineage."""
    if isinstance(lineage, TrueNode):
        return 1.0
    if isinstance(lineage, AtomNode):
        return lineage.atom.probability(registry)
    raise UnsafeQueryError(
        "SPROUT requires tuple-independent (or certain) input rows; found "
        f"composite lineage {lineage!r}"
    )


#: A subgoal and its candidate rows as ``(values, probability)`` pairs.
_Goal = Tuple[SubgoalPlan, List[Tuple[Tuple[Hashable, ...], float]]]


class _Candidates:
    """One subgoal's filtered rows, grouped by head-variable values."""

    __slots__ = ("step", "groups", "priced", "registry")

    def __init__(
        self,
        step: SubgoalPlan,
        rows: Sequence[Row],
        registry: VariableRegistry,
    ) -> None:
        self.step = step
        self.registry = registry
        self.groups = group_rows(step.rows(rows, select=True), step.group_key)
        self.priced: Dict[
            Tuple[Hashable, ...], List[Tuple[Tuple[Hashable, ...], float]]
        ] = {}

    def goal(self, answer: Tuple[Hashable, ...]) -> _Goal:
        """The subgoal with the rows matching ``answer``'s head values."""
        key = self.step.answer_key(answer)
        priced = self.priced.get(key)
        if priced is None:
            registry = self.registry
            priced = self.priced[key] = [
                (values, _row_probability(lineage, registry))
                for values, lineage in self.groups.get(key, ())
            ]
        return self.step, priced


def _miss(rows: List[Tuple[Tuple[Hashable, ...], float]]) -> float:
    """Probability that none of the (independent) rows is present."""
    miss = 1.0
    for _values, row_probability in rows:
        miss *= 1.0 - row_probability
    return miss


def _group_probability(
    goals: List[_Goal], bound: Set[int], names: Sequence[str]
) -> float:
    """Probability of a connected group of subgoals (all must match).

    ``bound`` holds the slots already fixed (head variables and the roots
    eliminated above); ``names`` maps slots to variable names.
    """
    # Fully bound goals are independent of everything else.
    probability = 1.0
    open_goals: List[_Goal] = []
    open_vars: List[Set[int]] = []
    for goal in goals:
        unbound = {slot for slot in goal[0].slots if slot not in bound}
        if unbound:
            open_goals.append(goal)
            open_vars.append(unbound)
            continue
        # All terms bound: the goal holds iff at least one matching row is
        # in the world.  Matching rows are independent tuples.
        probability *= 1.0 - _miss(goal[1])
        if probability == 0.0:
            return 0.0

    if not open_goals:
        return probability

    # Connected components among open goals, on the unbound variables.
    assigned = [-1] * len(open_goals)
    component = 0
    for start in range(len(open_goals)):
        if assigned[start] >= 0:
            continue
        frontier_vars = set(open_vars[start])
        assigned[start] = component
        changed = True
        while changed:
            changed = False
            for other in range(len(open_goals)):
                if assigned[other] >= 0:
                    continue
                if open_vars[other] & frontier_vars:
                    assigned[other] = component
                    frontier_vars |= open_vars[other]
                    changed = True
        component += 1

    for comp in range(component):
        indices = [i for i in range(len(open_goals)) if assigned[i] == comp]
        members = [open_goals[i] for i in indices]

        if len(members) == 1:
            # A lone subgoal holds iff at least one of its (independent)
            # matching rows is present — no recursion over local values.
            probability *= 1.0 - _miss(members[0][1])
            if probability == 0.0:
                return 0.0
            continue

        # Root variable: occurs in every member subgoal (hierarchy).
        member_vars: Set[int] = set()
        for i in indices:
            member_vars |= open_vars[i]
        roots = [
            slot
            for slot in member_vars
            if all(slot in open_vars[i] for i in indices)
        ]
        if not roots:
            raise UnsafeQueryError(
                "no root variable for a connected subgoal group — "
                "the query is not hierarchical"
            )
        root = min(roots, key=names.__getitem__)

        # Partition each member's rows by the root value in one pass;
        # the root must match in every member subgoal.
        partitions = [
            group_rows(rows, itemgetter(step.position[root]))
            for step, rows in members
        ]
        candidate_values = set(partitions[0])
        for partition in partitions[1:]:
            candidate_values.intersection_update(partition)

        # Distinct root values touch disjoint tuples: independent-or.
        sub_bound = bound | {root}
        miss = 1.0
        for value in sorted(candidate_values, key=repr):
            restricted = [
                (step, partition[value])
                for (step, _rows), partition in zip(members, partitions)
            ]
            miss *= 1.0 - _group_probability(restricted, sub_bound, names)
        probability *= 1.0 - miss
        if probability == 0.0:
            return 0.0
    return probability


def sprout_confidence(
    query: ConjunctiveQuery,
    database: Database,
) -> List[Tuple[Tuple[Hashable, ...], float]]:
    """Exact per-answer confidence via SPROUT's extensional evaluation.

    Requires a hierarchical conjunctive query without self-joins on
    tuple-independent (or certain) relations, whose inequalities are
    local selections; raises :class:`UnsafeQueryError` otherwise.
    """
    plan = query.plan
    if plan.self_join:
        raise UnsafeQueryError("SPROUT does not support self-joins")
    if not plan.hierarchical:
        raise UnsafeQueryError(f"query {query!r} is not hierarchical")
    # Inequalities are supported only as *selections*: every variable of an
    # inequality must be local to a single subgoal, where the predicate
    # becomes a row filter.  Cross-subgoal inequality joins belong to the
    # IQ algorithm (d-trees with the Lemma 6.8 order), not to SPROUT.
    for inequality, home in zip(query.inequalities, plan.inequality_homes):
        if home is None:
            raise UnsafeQueryError(
                f"inequality {inequality!r} joins subgoals; this SPROUT "
                "operator covers equality joins and local selections only"
            )

    # Distinct answers come from ordinary evaluation; the confidence of
    # each is then computed extensionally with head variables fixed.
    answers = evaluate(query, database)
    if not answers:
        return []
    registry = database.registry
    candidates = [
        _Candidates(step, database[step.relation].rows, registry)
        for step in plan.subgoals
    ]
    head = set(plan.head_slots)
    names = [var.name for var in plan.variables]
    return [
        (
            answer.values,
            _group_probability(
                [goal.goal(answer.values) for goal in candidates], head, names
            ),
        )
        for answer in answers
    ]
