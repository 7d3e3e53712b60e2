"""The three d-tree decompositions (paper, Section IV).

* **Independent-or (⊗)** — partition a DNF ``Φ`` into variable-disjoint
  DNFs ``Φ₁ ∨ … ∨ Φ_k``.  This is finding connected components of the
  variable co-occurrence structure; a connectivity sweep answers the
  common connected case, and a union-find over variables — the
  linear-time method the paper alludes to — splits the rest.

* **Independent-and (⊙)** — factor ``Φ`` into variable-disjoint DNFs with
  ``Φ ≡ Φ₁ ∧ … ∧ Φ_k``.  For relational lineage this is the unique
  algebraic factorization of [Olteanu, Koch, Antova; TCS 2008]: the clause
  set must be the cartesian (union-)product of the factors.  We grow factors
  from a pivot using a column-coupling test and then *verify* with the
  product-cardinality check ``|Φ| = Π|Φᵢ|``, which is sound (a failed
  verification simply reports "no factorization").

* **Shannon expansion (⊕)** — choose a variable ``x`` and rewrite
  ``Φ ≡ ⊕_{a ∈ Dom(x)} ({x=a} ⊙ Φ|_{x=a})``, skipping empty cofactors,
  and mark each cofactor that is provably still subsumption-free.
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
from .variables import VariableRegistry, lookup_atom, variable_repr

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
    non-trivial; a connected ``Φ`` comes back as ``[Φ]``, the input
    object itself.  Clauses with no variables (the constant-true clause)
    should have been handled by the caller; they are grouped into their
    own component here for safety.

    A connectivity sweep runs first: starting from one clause's
    variables, it absorbs every clause that shares a variable with the
    reached set (``frozenset.isdisjoint`` and ``|=``, both C loops),
    pass after pass, and answers ``[Φ]`` as soon as every variable is
    reached.  Only a pass that reaches nothing new falls through to the
    union-find, which orders components by ``variable_repr`` of their
    root as before.  Runs in near-linear time in ``size(Φ)``, on
    interned variable ids.
    """
    if _is_connected(dnf):
        return [dnf]
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


def _is_connected(dnf: DNF) -> bool:
    """Whether ``Φ`` is one ⊗ component (the connectivity sweep).

    The empty DNF has no component and a DNF holding the empty clause
    next to others has two, so both are reported disconnected; ``{∅}``
    alone is connected.
    """
    if len(dnf) <= 1:
        return len(dnf) == 1
    if dnf.is_true():
        return False
    target = len(dnf.variable_ids)
    clauses = iter(dnf)
    reached = set(next(clauses).variable_ids)
    pending = list(clauses)
    while len(reached) < target:
        unreached = []
        for clause in pending:
            vids = clause.variable_ids
            if reached.isdisjoint(vids):
                unreached.append(clause)
            else:
                reached |= vids
        if len(unreached) == len(pending):
            return False
        pending = unreached
    return True


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
    """One branch of a Shannon expansion: ``{x=a} ⊙ Φ|_{x=a}``.

    ``reduced`` is ``True`` when the cofactor is certified
    subsumption-free, so a d-tree can decompose it without another
    :meth:`~repro.core.dnf.DNF.remove_subsumed` pass.  The certificate
    holds only for expansions of a subsumption-free ``Φ`` (see
    :func:`shannon_expansion`); ``False`` promises nothing, and is the
    default for branches built elsewhere (e.g. decoded cache slices).
    """

    __slots__ = ("variable", "value", "probability", "cofactor", "reduced")

    def __init__(
        self,
        variable: Hashable,
        value: Hashable,
        probability: float,
        cofactor: DNF,
        reduced: bool = False,
    ) -> None:
        self.variable = variable
        self.value = value
        self.probability = probability
        self.cofactor = cofactor
        self.reduced = reduced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShannonBranch({self.variable!r}={self.value!r}, "
            f"p={self.probability}, cofactor={self.cofactor!r}, "
            f"reduced={self.reduced})"
        )


def shannon_expansion(
    dnf: DNF, variable: Hashable, registry: VariableRegistry
) -> List[ShannonBranch]:
    """Expand ``Φ`` on ``variable`` into mutually exclusive branches.

    Branches whose cofactor is empty (unsatisfiable conjunct) are skipped,
    exactly as in Fig. 1 of the paper.  The branch cofactor of a value
    ``a`` contains the restricted clauses plus all clauses not mentioning
    ``variable``; it equals ``dnf.restrict(variable, a)``.

    Precondition for the ``reduced`` marks: ``Φ`` is subsumption-free
    (every d-tree expands only reduced DNFs).  Each cofactor is built in
    one pass that splits its clauses into *unchanged* ones (no
    ``variable``) and *stripped* ones (had ``variable = a``, atom
    removed).  Two unchanged or two stripped clauses, or an unchanged
    clause inside a stripped one, would already have been a subsuming
    pair in ``Φ``; so the cofactor is subsumption-free unless a stripped
    clause is contained in an unchanged one, and exactly then the branch
    is marked ``reduced=False``.
    """
    if variable not in dnf.variables:
        raise ValueError(f"variable {variable!r} does not occur in the DNF")
    clauses = dnf.clauses
    branches: List[ShannonBranch] = []
    for value in registry.domain(variable):
        atom_id, var_id = lookup_atom(variable, value)
        if atom_id is None:
            atom_id = -1  # un-interned value: conflicts with any binding
        restricted: List[Clause] = []
        unchanged: List[Clause] = []
        stripped: List[Clause] = []
        for clause in clauses:
            restricted_clause = clause.restrict_ids(var_id, atom_id)
            if restricted_clause is None:
                continue
            restricted.append(restricted_clause)
            if restricted_clause is clause:
                unchanged.append(clause)
            else:
                stripped.append(restricted_clause)
        if not restricted:
            continue
        branches.append(
            ShannonBranch(
                variable,
                value,
                registry.probability(variable, value),
                DNF(restricted),
                _none_contained(stripped, unchanged),
            )
        )
    return branches


def _none_contained(
    stripped: Sequence[Clause], unchanged: Sequence[Clause]
) -> bool:
    """True when no ``stripped`` clause is a subset of an ``unchanged`` one.

    Stripped clauses are indexed by their smallest atom id: a stripped
    clause can fit inside an unchanged clause only if that atom does, so
    each unchanged clause probes just the buckets of its own atoms.
    """
    if not stripped or not unchanged:
        return True
    by_first_atom: Dict[int, List[FrozenSet[int]]] = {}
    for clause in stripped:
        atom_ids = clause._ids
        if not atom_ids:
            return False  # the empty clause lies inside every clause
        by_first_atom.setdefault(atom_ids[0], []).append(clause._idset)
    first_atoms = by_first_atom.keys()
    for clause in unchanged:
        idset = clause._idset
        if first_atoms.isdisjoint(idset):
            continue
        for atom_id in clause._ids:
            for candidate in by_first_atom.get(atom_id, ()):
                if candidate <= idset:
                    return False
    return True
