"""Variable-elimination orders for Shannon expansion.

The order of Shannon pivots greatly influences d-tree size (paper,
Section IV).  Two strategies are provided:

* :func:`max_frequency_choice` — the paper's default: pick a variable that
  occurs in the most clauses.

* :func:`iq_variable_choice` — the order of Lemma 6.8 for IQ (inequality)
  queries: pick a variable ``v`` from relation ``Rᵢ`` that occurs in
  clauses together with *all* variables of *all other* relations appearing
  in the DNF.  After Shannon expansion on ``v``, the positive cofactor's
  clause set collapses under subsumption (the co-factor of ``v`` subsumes
  ``Φ|_v``), which is what makes the compilation polynomial (Thm. 6.9).

:func:`make_variable_selector` composes them: try the IQ order when
variable→relation provenance is available, fall back to max frequency —
exactly the strategy described at the end of Section IV.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, Mapping, Optional

from .dnf import DNF
from .variables import variable_name, variable_repr

__all__ = [
    "VariableSelector",
    "CompositeSelector",
    "max_frequency_choice",
    "iq_variable_choice",
    "make_variable_selector",
]

VariableSelector = Callable[[DNF], Hashable]


def max_frequency_choice(dnf: DNF) -> Hashable:
    """A variable occurring in the most clauses (deterministic ties)."""
    return dnf.most_frequent_variable()


#: Sentinel for "name not in the provenance mapping" cache entries.
_NO_RELATION = object()


def iq_variable_choice(
    dnf: DNF,
    relation_of: Mapping[Hashable, Hashable],
    *,
    max_candidates: Optional[int] = None,
    _relation_cache: Optional[Dict[int, Hashable]] = None,
) -> Optional[Hashable]:
    """The Lemma 6.8 pivot, or ``None`` when no variable qualifies.

    A variable ``x`` from relation ``R`` qualifies when restricting the DNF
    to the clauses containing ``x`` preserves the per-relation distinct
    variable counts of every relation other than ``R``.  Candidates are
    tried in descending frequency order (for sorted inequality lineage the
    most frequent variable is the minimal one, which qualifies), so the
    scan almost always succeeds on the first candidate.

    ``max_candidates`` bounds the scan; the lemma guarantees success for IQ
    lineage, so a small cap only matters for non-IQ inputs where ``None``
    (fallback to max frequency) is the right answer anyway.

    Before the co-occurrence scans, a counting bound drops every capped
    candidate ``x`` with ``freq(x)·(L−1) < |vars(Φ)| − |vars of R|``,
    where ``L`` is the longest clause and ``R`` is ``x``'s relation.
    Each of the ``freq(x)`` clauses holding ``x`` adds at most ``L−1``
    other variables, too few to meet every variable outside ``R``; so
    the first qualifying candidate is unchanged.

    Variables missing from ``relation_of`` disqualify the heuristic (we
    cannot establish the lemma's counting condition), and ``None`` is
    returned.
    """
    variable_ids = dnf.variable_ids
    if not variable_ids:
        return None

    # vid -> relation, resolved through a cache shared across calls (the
    # selector is invoked once per Shannon step; provenance is fixed).
    cache = _relation_cache if _relation_cache is not None else {}
    relation_by_id: Dict[int, Hashable] = {}
    total_counts: Dict[Hashable, int] = {}
    for vid in variable_ids:
        relation = cache.get(vid, _NO_RELATION)
        if relation is _NO_RELATION:
            relation = relation_of.get(variable_name(vid), _NO_RELATION)
            cache[vid] = relation
        if relation is _NO_RELATION:
            return None  # unknown provenance: cannot certify the lemma
        relation_by_id[vid] = relation
        total_counts[relation] = total_counts.get(relation, 0) + 1
    if len(total_counts) < 2:
        return None  # single relation: the lemma is vacuous

    frequencies = dnf.variable_id_frequencies()
    sort_key = lambda vid: (-frequencies[vid], variable_repr(vid))  # noqa: E731
    if max_candidates is not None and max_candidates < len(variable_ids):
        candidates = heapq.nsmallest(max_candidates, variable_ids,
                                     key=sort_key)
    else:
        candidates = sorted(variable_ids, key=sort_key)
    partners = max(len(clause.variable_ids) for clause in dnf) - 1
    candidates = [
        vid for vid in candidates
        if frequencies[vid] * partners
        >= len(variable_ids) - total_counts[relation_by_id[vid]]
    ]
    if not candidates:
        return None

    def qualifies(candidate: int, occurring: set) -> bool:
        home_relation = relation_by_id[candidate]
        restricted_counts: Dict[Hashable, int] = {}
        for vid in occurring:
            relation = relation_by_id[vid]
            restricted_counts[relation] = (
                restricted_counts.get(relation, 0) + 1
            )
        return all(
            restricted_counts.get(relation, 0) == count
            for relation, count in total_counts.items()
            if relation != home_relation
        )

    # For IQ lineage the most frequent variable is the minimal one and
    # qualifies immediately (Lemma 6.8), so try it with a targeted scan
    # before paying for the remaining candidates.
    first = candidates[0]
    first_occurring: set = set()
    for clause in dnf:
        clause_vids = clause.variable_ids
        if first in clause_vids:
            first_occurring.update(clause_vids)
    if qualifies(first, first_occurring):
        return variable_name(first)
    if len(candidates) == 1:
        return None

    # Co-occurring variables of the remaining candidates in ONE pass over
    # the clauses (scanning per candidate would repeat the whole clause
    # walk up to ``max_candidates`` times on non-IQ inputs).
    co_occurring: Dict[int, set] = {vid: set() for vid in candidates[1:]}
    for clause in dnf:
        clause_vids = clause.variable_ids
        for vid in clause_vids:
            acc = co_occurring.get(vid)
            if acc is not None:
                acc.update(clause_vids)

    for candidate in candidates[1:]:
        if qualifies(candidate, co_occurring[candidate]):
            return variable_name(candidate)
    return None


class CompositeSelector:
    """The paper's composite pivot strategy as a picklable callable.

    Tries the Lemma 6.8 IQ order (using ``variable → relation``
    provenance) and falls back to max frequency — the Section IV
    strategy.  Being a plain class rather than a closure, it survives
    :mod:`pickle`, so a database-wired :class:`~repro.engine.EngineConfig`
    can be shipped to process-pool workers intact.  The per-instance
    relation cache is transient (rebuilt lazily after unpickling).
    """

    __slots__ = ("relation_of", "max_iq_candidates", "_relation_cache")

    def __init__(
        self,
        relation_of: Mapping[Hashable, Hashable],
        max_iq_candidates: Optional[int] = 25,
    ) -> None:
        self.relation_of = dict(relation_of)
        self.max_iq_candidates = max_iq_candidates
        self._relation_cache: Dict[int, Hashable] = {}

    def __call__(self, dnf: DNF) -> Hashable:
        choice = iq_variable_choice(
            dnf,
            self.relation_of,
            max_candidates=self.max_iq_candidates,
            _relation_cache=self._relation_cache,
        )
        if choice is not None:
            return choice
        return max_frequency_choice(dnf)

    def __reduce__(self):
        return (CompositeSelector, (self.relation_of,
                                    self.max_iq_candidates))

    def __repr__(self) -> str:
        return (
            f"CompositeSelector({len(self.relation_of)} variables, "
            f"max_iq_candidates={self.max_iq_candidates})"
        )


def make_variable_selector(
    relation_of: Optional[Mapping[Hashable, Hashable]] = None,
    *,
    max_iq_candidates: Optional[int] = 25,
) -> VariableSelector:
    """Build the paper's composite pivot strategy.

    With provenance (``relation_of``), the IQ order is attempted first and
    max-frequency is the fallback (a picklable
    :class:`CompositeSelector`); without provenance the selector is plain
    max-frequency.
    """
    if relation_of is None:
        return max_frequency_choice
    return CompositeSelector(relation_of, max_iq_candidates)
