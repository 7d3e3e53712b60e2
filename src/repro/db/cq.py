"""Conjunctive queries, their compiled plans, and the paper's
tractability classifications.

Queries are written Datalog-style::

    q(D) :- R1(A, B, C), R2(A, B), R3(A, D)

as :class:`ConjunctiveQuery` objects over :class:`Var`/:class:`Const`
terms, optionally extended with inequality predicates (the IQ queries of
Definition 6.6).

Each query compiles, once and lazily, into a :class:`QueryPlan`: the
variables are numbered into integer *slots* in first-occurrence order
(so a partial binding is a tuple prefix), and every subgoal records its
constant filters, repeated-variable equalities, join-key and new-variable
positions, and the inequalities it completes.  The plan holds no
database state; lineage evaluation (:mod:`repro.db.engine`), SPROUT
(:mod:`repro.db.sprout`) and the planner all read it.

Classifiers implemented here:

* :meth:`ConjunctiveQuery.is_hierarchical` — Definition 6.1: for any two
  non-head variables, their subgoal sets are disjoint or one contains the
  other.  Hierarchical queries without self-joins are exactly the known
  tractable conjunctive queries on tuple-independent databases.
* :meth:`ConjunctiveQuery.has_self_join` — repeated relation names.
* :meth:`ConjunctiveQuery.is_iq` — Definition 6.6: distinct
  tuple-independent relations, pairwise-disjoint non-head variable sets
  (no equality joins), and inequalities with the max-one property
  (Definition 6.5).
* :func:`hard_pattern_tractable` — Theorem 6.4: the ``R(X), S(X,Y), T(Y)``
  pattern is tractable when every connected component of S's bipartite
  graph is functional (S probabilistic or deterministic) or complete
  (S deterministic).
"""

from __future__ import annotations

import itertools
import operator
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.formulas import Formula, TrueNode
from .relation import Relation

__all__ = [
    "Var",
    "Const",
    "Term",
    "SubGoal",
    "Inequality",
    "ConjunctiveQuery",
    "QueryPlan",
    "SubgoalPlan",
    "hard_pattern_tractable",
]


class Var:
    """A query variable.

    The hash is computed once: variables are dict and set keys throughout
    query analysis.  Pickling goes by name, so an unpickled variable
    hashes under the receiving process's string-hash seed.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash = hash(("Var", name))

    def __reduce__(self):
        return (Var, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name


class Const:
    """A constant term (hash cached, pickled by value, like :class:`Var`)."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable) -> None:
        self.value = value
        self._hash = hash(("Const", value))

    def __reduce__(self):
        return (Const, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return repr(self.value)


Term = Union[Var, Const]

_COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "!=": operator.ne,
}


class SubGoal:
    """An atom ``R(t₁, …, t_k)`` of the query body."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: Sequence[Term]) -> None:
        self.relation = relation
        self.terms = tuple(terms)

    def variables(self) -> List[Var]:
        """Variables in term order, duplicates removed."""
        seen: List[Var] = []
        for term in self.terms:
            if isinstance(term, Var) and term not in seen:
                seen.append(term)
        return seen

    def __repr__(self) -> str:
        inner = ", ".join(repr(term) for term in self.terms)
        return f"{self.relation}({inner})"


class Inequality:
    """A predicate ``left op right`` with ``op ∈ {<, <=, >, >=, !=}``."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: Term, op: str, right: Term) -> None:
        if op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def variables(self) -> List[Var]:
        result = []
        for term in (self.left, self.right):
            if isinstance(term, Var):
                result.append(term)
        return result

    def holds(self, binding: Dict[Var, Hashable]) -> bool:
        left = (
            binding[self.left] if isinstance(self.left, Var) else self.left.value
        )
        right = (
            binding[self.right]
            if isinstance(self.right, Var)
            else self.right.value
        )
        return _COMPARATORS[self.op](left, right)

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


# ----------------------------------------------------------------------
# Query plans
# ----------------------------------------------------------------------
#: A compiled inequality ``(compare, left_index, left_value, right_index,
#: right_value)``: an operand with index ``None`` is the constant beside
#: it, any other reads ``values[index]``.
Check = Tuple[Callable, Optional[int], Hashable, Optional[int], Hashable]
Row = Tuple[Tuple[Hashable, ...], Formula]


def _compile_check(inequality: Inequality, index_of: Dict[Var, int]) -> Check:
    operands = []
    for term in (inequality.left, inequality.right):
        if isinstance(term, Var):
            operands += (index_of[term], None)
        else:
            operands += (None, term.value)
    return (_COMPARATORS[inequality.op], *operands)


def checks_hold(checks: Sequence[Check], values: Sequence[Hashable]) -> bool:
    """Whether every compiled inequality holds on ``values`` — a slot
    binding or a row, whichever index space the checks were compiled
    for."""
    for compare, left_index, left, right_index, right in checks:
        if left_index is not None:
            left = values[left_index]
        if right_index is not None:
            right = values[right_index]
        if not compare(left, right):
            return False
    return True


def group_rows(
    rows: Iterable[Tuple[Tuple[Hashable, ...], object]],
    key: Callable[[Tuple[Hashable, ...]], Hashable],
) -> Dict[Hashable, list]:
    """``(values, payload)`` rows bucketed by ``key(values)``, each bucket
    in input order."""
    groups: Dict[Hashable, list] = {}
    for row in rows:
        value = key(row[0])
        bucket = groups.get(value)
        if bucket is None:
            groups[value] = [row]
        else:
            bucket.append(row)
    return groups


def _no_key(_values: Sequence[Hashable]) -> Tuple[()]:
    return ()


def _tuple_getter(
    indices: Sequence[int],
) -> Callable[[Sequence[Hashable]], Tuple[Hashable, ...]]:
    """``values ↦ tuple(values[i] for i in indices)``, as a C-level
    :func:`operator.itemgetter` wherever that returns a tuple."""
    if not indices:
        return _no_key
    if len(indices) == 1:
        (index,) = indices
        return lambda values: (values[index],)
    return operator.itemgetter(*indices)


class SubgoalPlan:
    """One subgoal compiled against the query's variable slots.

    Row-side fields index a row's values by term position; ``checks``
    and ``binding_key`` index a slot binding.
    """

    __slots__ = (
        "relation",
        "arity",
        "constants",
        "repeats",
        "slots",
        "position",
        "join_key",
        "binding_key",
        "new_values",
        "checks",
        "selections",
        "group_key",
        "answer_key",
    )

    def __init__(
        self,
        query: "ConjunctiveQuery",
        index: int,
        slot_of: Dict[Var, int],
        bound: int,
        completing: Sequence[Inequality],
        homed: Sequence[Inequality],
    ) -> None:
        subgoal = query.subgoals[index]
        #: Relation name and term count.
        self.relation = subgoal.relation
        self.arity = len(subgoal.terms)
        constants: List[Tuple[int, Hashable]] = []
        repeats: List[Tuple[int, int]] = []
        position: Dict[int, int] = {}
        previous: Dict[int, int] = {}
        for at, term in enumerate(subgoal.terms):
            if isinstance(term, Const):
                constants.append((at, term.value))
                continue
            slot = slot_of[term]
            if slot in previous:
                repeats.append((at, previous[slot]))
            else:
                position[slot] = at
            previous[slot] = at
        #: ``(position, value)`` constant filters.
        self.constants = tuple(constants)
        #: ``(position, earlier position)`` pairs of a repeated variable.
        self.repeats = tuple(repeats)
        #: Distinct variable slots in term order, and the first position
        #: of each.
        self.slots = tuple(position)
        self.position = position
        # Slots are numbered in first-occurrence order, so the variables
        # this subgoal binds take the next slots, in term order: appending
        # their values extends the binding tuple.
        key_slots = [slot for slot in self.slots if slot < bound]
        new_slots = [slot for slot in self.slots if slot >= bound]
        #: Join key of a row, and of a binding of the earlier subgoals.
        self.join_key = _tuple_getter([position[s] for s in key_slots])
        self.binding_key = _tuple_getter(key_slots)
        #: The values a matching row appends to the binding.
        self.new_values = _tuple_getter([position[s] for s in new_slots])
        #: Inequalities whose last variable this subgoal binds (over
        #: slots), and those homed here as local selections (over row
        #: positions).
        self.checks = tuple(_compile_check(i, slot_of) for i in completing)
        row_index = {var: position[slot_of[var]] for var in subgoal.variables()}
        self.selections = tuple(_compile_check(i, row_index) for i in homed)
        #: Head-variable values of a row, and the same key read off an
        #: answer tuple.
        head_index: Dict[int, int] = {}
        for at, var in enumerate(query.head):
            head_index.setdefault(slot_of[var], at)
        in_head = [slot for slot in head_index if slot in position]
        self.group_key = _tuple_getter([position[s] for s in in_head])
        self.answer_key = _tuple_getter([head_index[s] for s in in_head])

    def rows(self, rows: Iterable[Row], *, select: bool = False) -> List[Row]:
        """The rows that match this subgoal's constants and repeated
        variables — and, with ``select``, its local selections — in
        relation order."""
        constants = self.constants
        repeats = self.repeats
        selections = self.selections if select else ()
        kept: List[Row] = []
        for row in rows:
            values = row[0]
            for at, value in constants:
                if values[at] != value:
                    break
            else:
                for at, earlier in repeats:
                    if values[at] != values[earlier]:
                        break
                else:
                    if not selections or checks_hold(selections, values):
                        kept.append(row)
        return kept


class QueryPlan:
    """The database-independent compilation of a conjunctive query.

    Built once per :class:`ConjunctiveQuery` (see
    :attr:`ConjunctiveQuery.plan`).  Besides the per-subgoal
    :class:`SubgoalPlan` steps it holds the query's classifications —
    the only place they are derived.
    """

    __slots__ = (
        "variables",
        "head_slots",
        "subgoals",
        "self_join",
        "hierarchical",
        "inequality_homes",
    )

    def __init__(self, query: "ConjunctiveQuery") -> None:
        slot_of: Dict[Var, int] = {}
        first_subgoal: List[int] = []
        for index, subgoal in enumerate(query.subgoals):
            for var in subgoal.variables():
                if var not in slot_of:
                    slot_of[var] = len(first_subgoal)
                    first_subgoal.append(index)
        #: Variables by slot, and the head as slots.
        self.variables = tuple(slot_of)
        self.head_slots = tuple(slot_of[var] for var in query.head)

        subgoal_vars = [set(s.variables()) for s in query.subgoals]
        completes: List[int] = []
        homes: List[Optional[int]] = []
        for inequality in query.inequalities:
            ineq_vars = inequality.variables()
            completes.append(
                max((first_subgoal[slot_of[v]] for v in ineq_vars), default=0)
            )
            homes.append(
                next(
                    (
                        index
                        for index, variables in enumerate(subgoal_vars)
                        if variables.issuperset(ineq_vars)
                    ),
                    None,
                )
            )
        #: Per inequality, the first subgoal holding all its variables
        #: (``None`` when it joins subgoals).
        self.inequality_homes = tuple(homes)

        steps = []
        bound = 0
        for index in range(len(query.subgoals)):
            completing = [
                inequality
                for inequality, at in zip(query.inequalities, completes)
                if at == index
            ]
            homed = [
                inequality
                for inequality, at in zip(query.inequalities, homes)
                if at == index
            ]
            step = SubgoalPlan(
                query, index, slot_of, bound, completing, homed
            )
            bound += sum(1 for slot in step.slots if slot >= bound)
            steps.append(step)
        self.subgoals = tuple(steps)

        names = [subgoal.relation for subgoal in query.subgoals]
        #: A relation name repeats.
        self.self_join = len(names) != len(set(names))
        sets = [query.subgoal_set(var) for var in query.non_head_variables()]
        #: Definition 6.1 holds.
        self.hierarchical = all(
            a <= b or b <= a or a.isdisjoint(b)
            for a, b in itertools.combinations(sets, 2)
        )


class ConjunctiveQuery:
    """``q(head) :- subgoals, inequalities``."""

    __slots__ = ("name", "head", "subgoals", "inequalities", "_plan")

    def __init__(
        self,
        head: Sequence[Var],
        subgoals: Sequence[SubGoal],
        inequalities: Sequence[Inequality] = (),
        name: str = "q",
    ) -> None:
        if not subgoals:
            raise ValueError("a conjunctive query needs at least one subgoal")
        self.name = name
        self.head = tuple(head)
        self.subgoals = tuple(subgoals)
        self.inequalities = tuple(inequalities)
        self._plan: Optional[QueryPlan] = None
        body_vars = self.variables()
        for var in self.head:
            if var not in body_vars:
                raise ValueError(f"head variable {var!r} not in query body")
        for inequality in self.inequalities:
            for var in inequality.variables():
                if var not in body_vars:
                    raise ValueError(
                        f"inequality variable {var!r} not in query body"
                    )

    def __reduce__(self):
        # The plan is rebuilt on demand in the receiving process.
        return (
            ConjunctiveQuery,
            (self.head, self.subgoals, self.inequalities, self.name),
        )

    @property
    def plan(self) -> QueryPlan:
        """The compiled :class:`QueryPlan`, built on first use."""
        plan = self._plan
        if plan is None:
            plan = self._plan = QueryPlan(self)
        return plan

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def variables(self) -> List[Var]:
        seen: List[Var] = []
        for subgoal in self.subgoals:
            for var in subgoal.variables():
                if var not in seen:
                    seen.append(var)
        return seen

    def non_head_variables(self) -> List[Var]:
        return [var for var in self.variables() if var not in self.head]

    def is_boolean(self) -> bool:
        return not self.head

    def subgoal_set(self, var: Var) -> FrozenSet[int]:
        """Indices of the subgoals in which ``var`` occurs (sg(var))."""
        return frozenset(
            index
            for index, subgoal in enumerate(self.subgoals)
            if var in subgoal.variables()
        )

    def has_self_join(self) -> bool:
        return self.plan.self_join

    # ------------------------------------------------------------------
    # Classifications
    # ------------------------------------------------------------------
    def is_hierarchical(self) -> bool:
        """Definition 6.1: the subgoal sets of any two non-head variables
        are disjoint or one contains the other."""
        return self.plan.hierarchical

    def _per_subgoal_variable_sets(self) -> List[Set[Var]]:
        """Non-head variable sets ``xᵢ − x₀`` per subgoal."""
        head = set(self.head)
        return [
            {var for var in subgoal.variables() if var not in head}
            for subgoal in self.subgoals
        ]

    def has_max_one_property(self) -> bool:
        """Definition 6.5 over the per-subgoal non-head variable sets:
        at most one variable from each set occurs in inequalities with
        variables of other sets."""
        groups = self._per_subgoal_variable_sets()

        def group_of(var: Var) -> Optional[int]:
            for index, group in enumerate(groups):
                if var in group:
                    return index
            return None

        crossing: Dict[int, Set[Var]] = {}
        for inequality in self.inequalities:
            variables = inequality.variables()
            if len(variables) == 2:
                left_group = group_of(variables[0])
                right_group = group_of(variables[1])
                if left_group is None or right_group is None:
                    continue  # head variables are exempt
                if left_group == right_group:
                    return False  # intra-set inequality breaks the pattern
                crossing.setdefault(left_group, set()).add(variables[0])
                crossing.setdefault(right_group, set()).add(variables[1])
        return all(len(used) <= 1 for used in crossing.values())

    def is_iq(self) -> bool:
        """Definition 6.6: an IQ query.

        Distinct relations (no self-joins), pairwise disjoint non-head
        variable sets (so all joins are inequality joins), and the
        max-one property on the inequalities.
        """
        if self.has_self_join():
            return False
        groups = self._per_subgoal_variable_sets()
        for left, right in itertools.combinations(groups, 2):
            if left & right:
                return False
        return self.has_max_one_property()

    def __repr__(self) -> str:
        head = ", ".join(repr(var) for var in self.head)
        body = ", ".join(repr(subgoal) for subgoal in self.subgoals)
        if self.inequalities:
            body += ", " + ", ".join(repr(i) for i in self.inequalities)
        return f"{self.name}({head}) :- {body}"


# ----------------------------------------------------------------------
# Theorem 6.4: tractable instances of the hard pattern R(X), S(X,Y), T(Y)
# ----------------------------------------------------------------------
def hard_pattern_tractable(
    s_relation: Relation,
    x_attribute: str,
    y_attribute: str,
) -> bool:
    """Check the Theorem 6.4 conditions on the middle table ``S``.

    The bipartite graph of ``S`` has the distinct X-values and Y-values as
    node sets and one edge per tuple.  The pattern is tractable when every
    connected component is

    * **functional** — no two X-nodes share a Y-node, or no two Y-nodes
      share an X-node (``S`` probabilistic or deterministic); or
    * **complete** — every X-node connects to every Y-node of the
      component — and all of the component's tuples are deterministic.
    """
    x_index = s_relation.attribute_index(x_attribute)
    y_index = s_relation.attribute_index(y_attribute)

    # Union-find over ('x', value) / ('y', value) nodes.
    parent: Dict[Tuple[str, Hashable], Tuple[str, Hashable]] = {}

    def find(node: Tuple[str, Hashable]) -> Tuple[str, Hashable]:
        parent.setdefault(node, node)
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def unite(a: Tuple[str, Hashable], b: Tuple[str, Hashable]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    edges: List[Tuple[Hashable, Hashable, bool]] = []
    for values, lineage in s_relation.rows:
        x_value, y_value = values[x_index], values[y_index]
        deterministic = isinstance(lineage, TrueNode)
        edges.append((x_value, y_value, deterministic))
        unite(("x", x_value), ("y", y_value))

    components: Dict[
        Tuple[str, Hashable], List[Tuple[Hashable, Hashable, bool]]
    ] = {}
    for x_value, y_value, deterministic in edges:
        root = find(("x", x_value))
        components.setdefault(root, []).append(
            (x_value, y_value, deterministic)
        )

    for component_edges in components.values():
        x_degree: Dict[Hashable, Set[Hashable]] = {}
        y_degree: Dict[Hashable, Set[Hashable]] = {}
        all_deterministic = True
        for x_value, y_value, deterministic in component_edges:
            x_degree.setdefault(x_value, set()).add(y_value)
            y_degree.setdefault(y_value, set()).add(x_value)
            all_deterministic = all_deterministic and deterministic
        functional = all(
            len(neighbours) == 1 for neighbours in x_degree.values()
        ) or all(len(neighbours) == 1 for neighbours in y_degree.values())
        if functional:
            continue
        complete = len(component_edges) >= len(x_degree) * len(y_degree) and (
            len({(x, y) for x, y, _d in component_edges})
            == len(x_degree) * len(y_degree)
        )
        if complete and all_deterministic:
            continue
        return False
    return True
