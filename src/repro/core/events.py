"""Atomic events and clauses.

An *atomic event* (paper, Section III) has the form ``x = a`` for a random
variable ``x`` and a domain value ``a``.  A *clause* is a conjunction of
atomic events.  A clause is consistent iff it does not bind the same
variable to two different values; consistent clauses are exactly partial
valuations, so a clause behaves as an immutable mapping ``var -> value``.

Boolean shorthand: ``x`` means ``x = True`` and ``¬x`` means ``x = False``.

Representation
--------------
Atoms and clauses are backed by the process-wide intern table of
:mod:`repro.core.variables`: an atom stores its dense ``atom_id`` /
``var_id`` pair, and a clause stores a sorted tuple plus frozenset of atom
ids and a ``var_id -> (atom_id, value)`` map.  Equality, hashing,
subsumption, independence and restriction therefore operate on small
integers — the inner-loop currency of the decomposition algorithms —
while the public API continues to speak in the original variable names.
"""

from __future__ import annotations

from collections import abc
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Tuple,
)

from .variables import (
    VariableRegistry,
    atom_entry,
    intern_atom,
    intern_variable,
    lookup_atom,
    lookup_variable,
    variable_name,
)

__all__ = ["Atom", "Clause", "InconsistentClauseError"]


class InconsistentClauseError(ValueError):
    """Raised when a clause would bind one variable to two distinct values."""


class Atom:
    """The atomic event ``variable = value``.

    Atoms are immutable value objects; two atoms are equal iff they name the
    same variable and value — which, by interning, is an integer comparison.
    """

    __slots__ = ("variable", "value", "atom_id", "var_id")

    def __init__(self, variable: Hashable, value: Hashable = True) -> None:
        atom_id, var_id = intern_atom(variable, value)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "atom_id", atom_id)
        object.__setattr__(self, "var_id", var_id)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        # Self-contained pickling: re-intern by (variable, value) on load,
        # so an unpickled atom is valid in any process (ids are assigned
        # by the receiving process's own tables).
        return (Atom, (self.variable, self.value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.atom_id == other.atom_id

    def __hash__(self) -> int:
        return self.atom_id

    def probability(self, registry: VariableRegistry) -> float:
        """``P(variable = value)`` under ``registry``."""
        return registry.atom_probability(self.atom_id)

    def negated(self) -> "Atom":
        """For Boolean atoms only: ``x`` becomes ``¬x`` and vice versa."""
        if self.value is True:
            return Atom(self.variable, False)
        if self.value is False:
            return Atom(self.variable, True)
        raise ValueError(
            f"cannot negate non-Boolean atom {self!r}; enumerate the domain"
        )

    def __repr__(self) -> str:
        if self.value is True:
            return f"{self.variable}"
        if self.value is False:
            return f"¬{self.variable}"
        return f"{self.variable}={self.value}"


class Clause:
    """A consistent conjunction of atomic events.

    The empty clause is the constant *true*.  Construction from atoms that
    bind the same variable to two different values raises
    :class:`InconsistentClauseError`, mirroring the paper's convention that
    every clause of a DNF has non-null probability.
    """

    __slots__ = ("_ids", "_idset", "_byvar", "_vids", "_hash", "_names",
                 "_repr")

    def __init__(
        self,
        atoms: Iterable[Atom] | Mapping[Hashable, Hashable] = (),
    ) -> None:
        byvar: Dict[int, Tuple[int, Hashable]] = {}
        if isinstance(atoms, abc.Mapping):
            for variable, value in atoms.items():
                atom_id, var_id = intern_atom(variable, value)
                existing = byvar.get(var_id)
                if existing is not None and existing[0] != atom_id:
                    raise InconsistentClauseError(
                        f"clause binds {variable!r} to both "
                        f"{existing[1]!r} and {value!r}"
                    )
                byvar[var_id] = (atom_id, value)
        else:
            for atom in atoms:
                if isinstance(atom, Atom):
                    atom_id, var_id, value = (
                        atom.atom_id, atom.var_id, atom.value
                    )
                else:  # (variable, value) pair tolerated for flexibility
                    variable, value = atom
                    atom_id, var_id = intern_atom(variable, value)
                existing = byvar.get(var_id)
                if existing is not None and existing[0] != atom_id:
                    raise InconsistentClauseError(
                        f"clause binds {variable_name(var_id)!r} to both "
                        f"{existing[1]!r} and {value!r}"
                    )
                byvar[var_id] = (atom_id, value)
        self._init_from_byvar(byvar)

    def _init_from_byvar(
        self, byvar: Dict[int, Tuple[int, Hashable]]
    ) -> None:
        ids = tuple(sorted(entry[0] for entry in byvar.values()))
        idset = frozenset(ids)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_idset", idset)
        object.__setattr__(self, "_byvar", byvar)
        object.__setattr__(self, "_vids", frozenset(byvar))
        object.__setattr__(self, "_hash", hash(idset))
        object.__setattr__(self, "_names", None)
        object.__setattr__(self, "_repr", None)

    @classmethod
    def _from_byvar(
        cls, byvar: Dict[int, Tuple[int, Hashable]]
    ) -> "Clause":
        """Internal constructor from already-interned bindings."""
        clause = cls.__new__(cls)
        clause._init_from_byvar(byvar)
        return clause

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Clause is immutable")

    @classmethod
    def _from_atom_ids(cls, atom_ids: Tuple[int, ...]) -> "Clause":
        """Rebuild a clause from bare interned atom ids.

        Valid only when the receiving process shares the sender's intern
        tables — the same process, a forked child, or a worker that ran
        :func:`~repro.core.variables.install_intern_snapshot` (the
        parallel executor's pool initializer does, and its task codec is
        the only caller).  Deliberately *not* the pickle encoding: bare
        ids in an unsynchronised process would silently rebind to
        unrelated atoms.
        """
        byvar: Dict[int, Tuple[int, Hashable]] = {}
        for atom_id in atom_ids:
            var_id, _name, value = atom_entry(atom_id)
            byvar[var_id] = (atom_id, value)
        return cls._from_byvar(byvar)

    def __reduce__(self):
        # Self-contained pickling by (variable, value) pairs: safe in
        # any process (re-interned on load), like Atom.  The parallel
        # execution layer ships clauses as cheap interned-id tuples
        # instead, through its own codec over snapshot-synchronised
        # pools (see repro.engine_parallel).
        return (Clause, (dict(self.items()),))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *atoms: Atom) -> "Clause":
        """Clause from atoms given positionally."""
        return cls(atoms)

    @classmethod
    def positive(cls, *variables: Hashable) -> "Clause":
        """Clause asserting ``v = True`` for each Boolean variable given."""
        return cls(Atom(v, True) for v in variables)

    # ------------------------------------------------------------------
    # Mapping-like access
    # ------------------------------------------------------------------
    @property
    def variables(self) -> FrozenSet[Hashable]:
        """The bound variable *names* (lazily mapped back from ids)."""
        names = self._names
        if names is None:
            names = frozenset(variable_name(vid) for vid in self._byvar)
            object.__setattr__(self, "_names", names)
        return names

    @property
    def variable_ids(self) -> FrozenSet[int]:
        """The bound variables as interned ids (hot-loop currency)."""
        return self._vids

    @property
    def atom_ids(self) -> Tuple[int, ...]:
        """Sorted interned atom ids — doubles as a deterministic sort key."""
        return self._ids

    def value_of(self, variable: Hashable) -> Hashable:
        """The value this clause binds ``variable`` to (KeyError if unbound)."""
        var_id = lookup_variable(variable)
        entry = self._byvar.get(var_id) if var_id is not None else None
        if entry is None:
            raise KeyError(variable)
        return entry[1]

    def binds(self, variable: Hashable) -> bool:
        var_id = lookup_variable(variable)
        return var_id is not None and var_id in self._byvar

    def atoms(self) -> Iterator[Atom]:
        """Iterate the atoms of the clause in deterministic order."""
        for atom_id in self._ids:
            _var_id, variable, value = atom_entry(atom_id)
            yield Atom(variable, value)

    def items(self) -> Iterator[Tuple[Hashable, Hashable]]:
        for var_id, (_atom_id, value) in self._byvar.items():
            yield variable_name(var_id), value

    def __len__(self) -> int:
        return len(self._byvar)

    def __bool__(self) -> bool:
        # Even the empty clause (constant true) is a real object; avoid the
        # accidental falsiness of empty containers.
        return True

    def is_empty(self) -> bool:
        """True for the empty clause, i.e. the constant *true*."""
        return not self._byvar

    # ------------------------------------------------------------------
    # Logic
    # ------------------------------------------------------------------
    def is_consistent_with_atom(self, variable: Hashable, value: Hashable) -> bool:
        """False iff this clause binds ``variable`` to a different value."""
        var_id = lookup_variable(variable)
        entry = self._byvar.get(var_id) if var_id is not None else None
        return entry is None or entry[1] == value

    def subsumes(self, other: "Clause") -> bool:
        """True when ``self ⊆ other`` as atom sets (``self`` is more general).

        In a DNF, a clause that subsumes another makes the other redundant:
        whenever the superset clause is true the subset clause is, too.
        """
        return self._idset <= other._idset

    def restrict(self, variable: Hashable, value: Hashable) -> "Clause | None":
        """The clause conditioned on ``variable = value``.

        Returns ``None`` when the clause is inconsistent with the atom;
        otherwise the clause with any ``variable`` binding removed (it is
        implied by the condition).  This is the per-clause step of Shannon
        expansion (paper, Section IV).
        """
        atom_id, var_id = lookup_atom(variable, value)
        if var_id is None or var_id not in self._byvar:
            return self  # variable unbound (or never interned): no-op
        # -1 never equals a real atom id: an un-interned value conflicts
        # with whatever this clause binds the variable to.
        return self.restrict_ids(var_id, atom_id if atom_id is not None
                                 else -1)

    def restrict_ids(self, var_id: int, atom_id: int) -> "Clause | None":
        """Id-based :meth:`restrict` used by the DNF-level hot path."""
        entry = self._byvar.get(var_id)
        if entry is None:
            return self
        if entry[0] != atom_id:
            return None
        remaining = {
            vid: binding
            for vid, binding in self._byvar.items()
            if vid != var_id
        }
        return Clause._from_byvar(remaining)

    def union(self, other: "Clause") -> "Clause":
        """Conjunction of two clauses (raises if inconsistent)."""
        merged = dict(self._byvar)
        for var_id, binding in other._byvar.items():
            existing = merged.get(var_id)
            if existing is not None and existing[0] != binding[0]:
                raise InconsistentClauseError(
                    f"clauses disagree on {variable_name(var_id)!r}: "
                    f"{existing[1]!r} vs {binding[1]!r}"
                )
            merged[var_id] = binding
        return Clause._from_byvar(merged)

    def independent_of(self, other: "Clause") -> bool:
        """True when the clauses share no variable (paper, Section III)."""
        return self._vids.isdisjoint(other._vids)

    def project(self, variables: FrozenSet[Hashable]) -> "Clause":
        """The sub-clause over ``variables`` (used by ⊙-factorization)."""
        var_ids = set()
        for variable in variables:
            var_id = lookup_variable(variable)
            if var_id is not None:
                var_ids.add(var_id)
        return self.project_ids(frozenset(var_ids))

    def project_ids(self, var_ids: FrozenSet[int]) -> "Clause":
        """Id-based :meth:`project` used by the factorization hot path."""
        return Clause._from_byvar(
            {
                vid: binding
                for vid, binding in self._byvar.items()
                if vid in var_ids
            }
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def probability(self, registry: VariableRegistry) -> float:
        """Product of atomic-event probabilities (1.0 for the empty clause)."""
        probs = registry._atom_probs
        base = registry._atom_base
        size = len(probs)
        result = 1.0
        for atom_id in self._ids:
            index = atom_id - base
            prob = probs[index] if 0 <= index < size else None
            if prob is None:
                # Overflow entries and unknown atoms take the slow path.
                prob = registry.atom_probability(atom_id)
            result *= prob
        return result

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        """Truth value under a (possibly partial) valuation.

        Unbound variables make the clause false only if the clause binds
        them; the caller is expected to pass worlds covering the clause.
        """
        for var_id, (_atom_id, value) in self._byvar.items():
            if world.get(variable_name(var_id), _MISSING) != value:
                return False
        return True

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._idset == other._idset

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cached = self._repr
        if cached is not None:
            return cached
        if not self._byvar:
            text = "⊤"
        else:
            parts = []
            for variable, value in sorted(
                self.items(), key=lambda item: repr(item[0])
            ):
                if value is True:
                    parts.append(f"{variable}")
                elif value is False:
                    parts.append(f"¬{variable}")
                else:
                    parts.append(f"{variable}={value}")
            text = " ∧ ".join(parts)
        object.__setattr__(self, "_repr", text)
        return text


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()
