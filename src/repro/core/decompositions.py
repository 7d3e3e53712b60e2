"""The three d-tree decompositions (paper, Section IV).

* **Independent-or (⊗)** — partition a DNF ``Φ`` into variable-disjoint
  DNFs ``Φ₁ ∨ … ∨ Φ_k``.  This is finding connected components of the
  variable co-occurrence structure; we use a union-find over variables,
  which is the linear-time method the paper alludes to.

* **Independent-and (⊙)** — factor ``Φ`` into variable-disjoint DNFs with
  ``Φ ≡ Φ₁ ∧ … ∧ Φ_k``.  For relational lineage this is the unique
  algebraic factorization of [Olteanu, Koch, Antova; TCS 2008]: the clause
  set must be the cartesian (union-)product of the factors.  We grow factors
  from a pivot using a column-coupling test and then *verify* with the
  product-cardinality check ``|Φ| = Π|Φᵢ|``, which is sound (a failed
  verification simply reports "no factorization").

* **Shannon expansion (⊕)** — choose a variable ``x`` and rewrite
  ``Φ ≡ ⊕_{a ∈ Dom(x)} ({x=a} ⊙ Φ|_{x=a})``, skipping empty cofactors.
"""

from __future__ import annotations

from math import gcd
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .dnf import DNF
from .events import Clause
from .variables import VariableRegistry, variable_repr

__all__ = [
    "independent_or_partition",
    "independent_and_factorization",
    "shannon_expansion",
    "ShannonBranch",
]


# ----------------------------------------------------------------------
# Independent-or: connected components via union-find
# ----------------------------------------------------------------------
class _UnionFind:
    """Union-find over interned integer ids with path compression."""

    __slots__ = ("_parent", "_rank")

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._rank: Dict[int, int] = {}

    def find(self, item: int) -> int:
        parent = self._parent
        if item not in parent:
            parent[item] = item
            self._rank[item] = 0
            return item
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, left: int, right: int) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        if self._rank[left_root] < self._rank[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        if self._rank[left_root] == self._rank[right_root]:
            self._rank[left_root] += 1


def independent_or_partition(dnf: DNF) -> List[DNF]:
    """Partition ``Φ`` into pairwise independent DNFs (⊗ children).

    Returns a list with more than one element iff the decomposition is
    non-trivial; a singleton list means ``Φ`` is connected.  Clauses with no
    variables (the constant-true clause) should have been handled by the
    caller; they are grouped into their own component here for safety.

    Runs in near-linear time in ``size(Φ)``, on interned variable ids.
    """
    uf = _UnionFind()
    find = uf.find
    union = uf.union
    for clause in dnf:
        vids = clause.variable_ids
        if len(vids) < 2:
            continue
        vid_iter = iter(vids)
        first = next(vid_iter)
        for vid in vid_iter:
            union(first, vid)
    groups: Dict[int, List[Clause]] = {}
    empties: List[Clause] = []
    for clause in dnf.sorted_clauses():
        vids = clause.variable_ids
        if not vids:
            empties.append(clause)
            continue
        root = find(next(iter(vids)))
        groups.setdefault(root, []).append(clause)
    components = [
        DNF(clauses)
        for _root, clauses in sorted(
            groups.items(), key=lambda item: variable_repr(item[0])
        )
    ]
    if empties:
        components.append(DNF(empties))
    return components


# ----------------------------------------------------------------------
# Independent-and: product factorization
# ----------------------------------------------------------------------
def independent_and_factorization(dnf: DNF) -> Optional[List[DNF]]:
    """Try to factor ``Φ ≡ Φ₁ ⊙ … ⊙ Φ_k`` with disjoint variables.

    Strategy: compute the finest candidate partition of the variables by
    growing a factor around a pivot variable.  A variable ``u`` joins the
    factor ``F`` when the pair column ``(proj_F, col_u)`` over the clauses
    is *not* a full cross product of the respective distinct values —
    then ``u`` is coupled to ``F`` and must share its factor.  Once the
    candidate partition is found, verify ``|Φ| = Π |proj_{Vᵢ}(Φ)|``;
    because every clause is the union of its projections, ``Φ`` is always a
    subset of the cartesian combination, so equal cardinality proves
    equality.

    Returns ``None`` when no non-trivial factorization exists (or when the
    candidate fails verification, in which case Shannon expansion remains
    available to the compiler).  Requires a subsumption-free, connected-or
    handled input for best results but is sound on any DNF.

    Before any column work, a divisibility test rejects inputs that
    cannot factor: when no variable occurs in all ``n`` clauses and some
    variable's clause frequency ``f`` has ``gcd(f, n) = 1``, the answer
    is ``None``.  Proof: in a verified ``Φ = F₁ ⊙ … ⊙ F_k`` a variable
    of ``Fᵢ`` occurs ``freq_{Fᵢ}(v)·n/|Fᵢ|`` times, so either
    ``n/|Fᵢ| ≥ 2`` divides both ``f`` and ``n``, or every other factor
    is a single clause whose variables occur in all ``n`` clauses.
    """
    clauses = dnf.sorted_clauses()
    clause_count = len(clauses)
    if clause_count < 2:
        return None
    variables = sorted(dnf.variable_ids)
    if len(variables) < 2:
        return None
    frequencies = dnf.variable_id_frequencies().values()
    if clause_count not in frequencies and any(
        gcd(frequency, clause_count) == 1 for frequency in frequencies
    ):
        return None

    # Column of each variable: atom id per clause, ``None`` when absent.
    # Distinctness of atom ids equals distinctness of bound values, and
    # integer columns hash far faster than arbitrary user values.  Built in
    # one pass over the clause atoms, O(size(Φ)).
    raw_columns: Dict[int, List[object]] = {
        vid: [None] * clause_count for vid in variables
    }
    for index, clause in enumerate(clauses):
        for vid, (atom_id, _value) in clause._byvar.items():
            raw_columns[vid][index] = atom_id
    columns: Dict[int, Tuple[object, ...]] = {
        vid: tuple(column) for vid, column in raw_columns.items()
    }

    # Distinct value count per column, computed once.
    col_distinct: Dict[int, int] = {
        vid: len(set(column)) for vid, column in columns.items()
    }

    unassigned: List[int] = list(variables)
    partition: List[Set[int]] = []
    while unassigned:
        pivot = unassigned.pop(0)
        factor: Set[int] = {pivot}
        factor_key: List[Tuple[object, ...]] = [columns[pivot]]
        changed = True
        while changed:
            changed = False
            # Projection signature of the factor per clause.
            proj = tuple(zip(*factor_key))
            proj_distinct = len(set(proj))
            still_unassigned: List[int] = []
            for candidate in unassigned:
                col = columns[candidate]
                pairs = len(set(zip(proj, col)))
                if pairs != proj_distinct * col_distinct[candidate]:
                    factor.add(candidate)
                    factor_key.append(col)
                    changed = True
                else:
                    still_unassigned.append(candidate)
            unassigned = still_unassigned
        partition.append(factor)

    if len(partition) < 2:
        return None

    # Verification: |Φ| must equal the product of distinct projection counts.
    factors: List[DNF] = []
    product = 1
    for var_group in partition:
        group = frozenset(var_group)
        projections = {clause.project_ids(group) for clause in clauses}
        product *= len(projections)
        factors.append(DNF(projections))
    if product != len(clauses):
        return None
    # A factor containing the empty clause would be the constant true and
    # signals a degenerate factorization; reject it (the size check usually
    # already has).
    if any(factor.is_true() for factor in factors):
        return None
    return factors


# ----------------------------------------------------------------------
# Shannon expansion
# ----------------------------------------------------------------------
class ShannonBranch:
    """One branch of a Shannon expansion: ``{x=a} ⊙ Φ|_{x=a}``."""

    __slots__ = ("variable", "value", "probability", "cofactor")

    def __init__(
        self,
        variable: Hashable,
        value: Hashable,
        probability: float,
        cofactor: DNF,
    ) -> None:
        self.variable = variable
        self.value = value
        self.probability = probability
        self.cofactor = cofactor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShannonBranch({self.variable!r}={self.value!r}, "
            f"p={self.probability}, cofactor={self.cofactor!r})"
        )


def shannon_expansion(
    dnf: DNF, variable: Hashable, registry: VariableRegistry
) -> List[ShannonBranch]:
    """Expand ``Φ`` on ``variable`` into mutually exclusive branches.

    Branches whose cofactor is empty (unsatisfiable conjunct) are skipped,
    exactly as in Fig. 1 of the paper.  The branch cofactor of a value
    ``a`` contains the restricted clauses plus all clauses not mentioning
    ``variable``.
    """
    if variable not in dnf.variables:
        raise ValueError(f"variable {variable!r} does not occur in the DNF")
    branches: List[ShannonBranch] = []
    for value in registry.domain(variable):
        cofactor = dnf.restrict(variable, value)
        if cofactor.is_false():
            continue
        branches.append(
            ShannonBranch(
                variable,
                value,
                registry.probability(variable, value),
                cofactor,
            )
        )
    return branches
