"""DNF formulas represented as sets of clauses.

The paper represents a DNF "by a set of sets of atomic formulae"
(Section IV).  :class:`DNF` is that representation: an immutable set of
consistent :class:`~repro.core.events.Clause` objects, with the operations
the compiler of Fig. 1 needs — subsumption removal, Shannon restriction,
and bookkeeping over the variable set.

Inconsistent clauses are dropped at construction (they have probability
zero and the paper assumes every clause of a DNF has non-null probability).

Clauses are interned integer structures (see :mod:`repro.core.events`):
subsumption is frozenset containment over atom ids, restriction compares
atom ids, and the deterministic clause order is the lexicographic order of
sorted atom-id tuples — no ``repr`` strings on any hot path.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from .events import Atom, Clause, InconsistentClauseError
from .variables import (
    VariableRegistry,
    lookup_atom,
    variable_name,
    variable_repr,
)

__all__ = ["DNF"]


class DNF:
    """An immutable DNF: a finite set of consistent clauses.

    The empty DNF is the constant *false*; a DNF containing the empty
    clause is the constant *true* (after subsumption removal it is exactly
    ``{∅}``).
    """

    __slots__ = ("_clauses", "_vids", "_names", "_hash", "_sorted",
                 "_frequencies")

    def __init__(self, clauses: Iterable[Clause] = ()) -> None:
        clause_set = frozenset(clauses)
        vids: Set[int] = set()
        for clause in clause_set:
            vids.update(clause._vids)
        object.__setattr__(self, "_clauses", clause_set)
        object.__setattr__(self, "_vids", frozenset(vids))
        object.__setattr__(self, "_names", None)
        object.__setattr__(self, "_hash", hash(clause_set))
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_frequencies", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DNF is immutable")

    def __reduce__(self):
        # Clauses pickle self-contained by (variable, value) pairs (see
        # :meth:`repro.core.events.Clause.__reduce__`), so a pickled DNF
        # is valid in any process.  ``sorted_clauses`` keeps the payload
        # deterministic.  The parallel executor bypasses this with its
        # interned-id task codec (cheap, snapshot-synchronised pools).
        return (DNF, (tuple(self.sorted_clauses()),))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def false(cls) -> "DNF":
        """The empty DNF — unsatisfiable."""
        return cls()

    @classmethod
    def true(cls) -> "DNF":
        """The DNF ``{∅}`` — valid."""
        return cls((Clause(),))

    @classmethod
    def from_sets(
        cls, clause_specs: Iterable[Mapping[Hashable, Hashable]]
    ) -> "DNF":
        """Build from an iterable of ``var -> value`` mappings.

        Mappings that are internally inconsistent cannot arise (dict keys
        are unique), so every spec becomes a clause.
        """
        return cls(Clause(spec) for spec in clause_specs)

    @classmethod
    def from_positive_clauses(
        cls, variable_groups: Iterable[Iterable[Hashable]]
    ) -> "DNF":
        """Build a positive-Boolean DNF: each group is a conjunction of
        ``v = True`` atoms.  This is the shape produced by positive
        relational algebra on tuple-independent tables."""
        return cls(Clause.positive(*group) for group in variable_groups)

    @classmethod
    def of_atoms(cls, *atoms: Atom) -> "DNF":
        """A DNF with one singleton clause per atom (a plain disjunction)."""
        return cls(Clause((atom,)) for atom in atoms)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> FrozenSet[Clause]:
        return self._clauses

    @property
    def variables(self) -> FrozenSet[Hashable]:
        """The variable *names* occurring in the DNF (lazily computed)."""
        names = self._names
        if names is None:
            names = frozenset(variable_name(vid) for vid in self._vids)
            object.__setattr__(self, "_names", names)
        return names

    @property
    def variable_ids(self) -> FrozenSet[int]:
        """Occurring variables as interned ids (hot-loop currency)."""
        return self._vids

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __contains__(self, clause: object) -> bool:
        return clause in self._clauses

    def is_false(self) -> bool:
        return not self._clauses

    def is_true(self) -> bool:
        """True iff the DNF contains the empty clause (constant true).

        A hash lookup: clauses hash and compare by their atom-id sets.
        """
        return _EMPTY_CLAUSE in self._clauses

    def is_single_clause(self) -> bool:
        return len(self._clauses) == 1

    def sole_clause(self) -> Clause:
        """The only clause of a singleton DNF (raises otherwise)."""
        if len(self._clauses) != 1:
            raise ValueError(f"DNF has {len(self._clauses)} clauses, not 1")
        return next(iter(self._clauses))

    def size(self) -> int:
        """Total number of atoms — the paper's notion of DNF size."""
        return sum(len(clause) for clause in self._clauses)

    def sorted_clauses(self) -> List[Clause]:
        """Clauses in a deterministic order (by atom-id tuples).

        The order is computed once per (immutable) DNF; callers receive a
        fresh copy they may reorder freely.
        """
        cached = self._sorted
        if cached is None:
            cached = sorted(self._clauses, key=_clause_sort_key)
            object.__setattr__(self, "_sorted", cached)
        return list(cached)

    # ------------------------------------------------------------------
    # Logic operations
    # ------------------------------------------------------------------
    def remove_subsumed(self) -> "DNF":
        """Drop every clause that is a strict superset of another clause.

        This is step 1 of the compiler in Fig. 1 of the paper: if
        ``s ⊂ t`` then ``t`` is redundant.  Quadratic in the number of
        clauses, with a grouping-by-atom pre-filter that makes the common
        relational-lineage case close to linear; all set algebra runs on
        interned atom ids.
        """
        clauses = list(self._clauses)
        if len(clauses) <= 1:
            return self
        # Sort by clause length: only shorter (or equal-length, but equal
        # length + subset means equality, already deduplicated) clauses can
        # subsume longer ones.
        clauses.sort(key=len)
        kept: List[Clause] = []
        # Index kept clauses by one of their atoms to prune comparisons: a
        # kept clause subsumes `candidate` only if all its atoms appear in
        # `candidate`, so it suffices to scan the buckets of the
        # candidate's own atoms.
        by_atom: Dict[int, List[Clause]] = {}
        for candidate in clauses:
            if candidate.is_empty():
                # The empty clause subsumes everything.
                return DNF.true()
            subsumed = False
            candidate_idset = candidate._idset
            seen: Set[int] = set()
            for atom_id in candidate._ids:
                for keeper in by_atom.get(atom_id, ()):
                    keeper_key = id(keeper)
                    if keeper_key in seen:
                        continue
                    seen.add(keeper_key)
                    if keeper._idset <= candidate_idset:
                        subsumed = True
                        break
                if subsumed:
                    break
            if not subsumed:
                kept.append(candidate)
                for atom_id in candidate._ids:
                    by_atom.setdefault(atom_id, []).append(candidate)
        if len(kept) == len(self._clauses):
            return self
        return DNF(kept)

    def restrict(self, variable: Hashable, value: Hashable) -> "DNF":
        """``Φ|_{variable=value}`` — the Shannon cofactor (Fig. 1, step 4).

        Removes clauses inconsistent with ``variable = value`` and strips
        the atom from the remaining clauses.
        """
        atom_id, var_id = lookup_atom(variable, value)
        if var_id is None:
            return self  # the variable occurs nowhere: identity
        if atom_id is None:
            atom_id = -1  # un-interned value: conflicts with any binding
        restricted: List[Clause] = []
        for clause in self._clauses:
            reduced = clause.restrict_ids(var_id, atom_id)
            if reduced is not None:
                restricted.append(reduced)
        return DNF(restricted)

    def union(self, other: "DNF") -> "DNF":
        """Disjunction: union of clause sets."""
        return DNF(self._clauses | other._clauses)

    def conjoin(self, other: "DNF") -> "DNF":
        """Conjunction via clause-wise distribution; inconsistent products
        are dropped.  Quadratic in the clause counts (DNF × DNF)."""
        product: Set[Clause] = set()
        for left in self._clauses:
            for right in other._clauses:
                try:
                    product.add(left.union(right))
                except InconsistentClauseError:
                    continue
        return DNF(product)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        """Truth under a valuation covering the DNF's variables."""
        return any(clause.evaluate(world) for clause in self._clauses)

    def variable_frequencies(self) -> Dict[Hashable, int]:
        """How many clauses each variable name appears in."""
        return {
            variable_name(vid): count
            for vid, count in self.variable_id_frequencies().items()
        }

    def variable_id_frequencies(self) -> Dict[int, int]:
        """Clause counts per interned variable id (Shannon heuristic).

        Counted once per (immutable) DNF — the ⊙ divisibility test and
        the pivot selector both ask on the same node; callers receive a
        fresh copy they may modify freely.
        """
        counts = self._frequencies
        if counts is None:
            counts = {}
            for clause in self._clauses:
                for vid in clause._vids:
                    counts[vid] = counts.get(vid, 0) + 1
            object.__setattr__(self, "_frequencies", counts)
        return dict(counts)

    def most_frequent_variable(self) -> Hashable:
        """The paper's default Shannon pivot: a most frequent variable.

        Ties are broken deterministically by ``repr`` of the variable
        (cached per interned id).
        """
        counts = self.variable_id_frequencies()
        if not counts:
            raise ValueError("DNF has no variables")
        best = max(
            counts.items(),
            key=lambda item: (item[1], variable_repr(item[0])),
        )[0]
        return variable_name(best)

    def marginal_probabilities(
        self, registry: VariableRegistry
    ) -> List[Tuple[Clause, float]]:
        """Each clause paired with its marginal probability."""
        return [
            (clause, clause.probability(registry)) for clause in self._clauses
        ]

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DNF):
            return NotImplemented
        return self._clauses == other._clauses

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._clauses:
            return "⊥"
        parts = [f"({clause!r})" for clause in self.sorted_clauses()]
        return " ∨ ".join(parts)


def _clause_sort_key(clause: Clause) -> Tuple[int, ...]:
    return clause._ids


#: The constant-true clause, the probe of :meth:`DNF.is_true`.
_EMPTY_CLAUSE = Clause()
