"""The 3T permuted trie index (paper Section 3.1).

Three permutations are materialised — SPO, POS and OSP — so that every triple
selection pattern with one or two wildcards is a *prefix* pattern on one of
them and can be answered with the cache-friendly ``select`` algorithm:

========  =========  ==================================
pattern   trie       permuted shape
========  =========  ==================================
``SPO``   SPO        (s, p, o) — full lookup
``SP?``   SPO        (s, p, ?)
``S??``   SPO        (s, ?, ?)
``???``   SPO        full scan
``?PO``   POS        (p, o, ?)
``?P?``   POS        (p, ?, ?)
``S?O``   OSP        (o, s, ?)
``??O``   OSP        (o, ?, ?)
========  =========  ==================================
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.base import PatternLike, TripleIndex, page_of
from repro.core.patterns import PatternKind, TriplePattern
from repro.core.permutations import PERMUTATIONS
from repro.core.trie import PermutationTrie, page_window
from repro.errors import PatternError

#: Cursor-plan score: ``(exact, constants enforced, plain level)`` — higher is
#: better.  A plain level cursor beats the filtered "middle" cursor at equal
#: strength because its per-step cost is one access instead of one find.
_CursorScore = Tuple[int, int, int]


def plan_trie_cursor(permutation_order: Tuple[int, int, int],
                     bound: Mapping[int, int], role: int
                     ) -> Optional[Tuple[_CursorScore, bool, int]]:
    """Decide how one trie permutation can serve successors of ``role``.

    ``bound`` maps roles (0=S, 1=P, 2=O) to the constants fixed so far; the
    trie can serve the target when all permuted positions before ``role``'s
    are bound.  Returns ``(score, exact, level)`` — ``exact`` means the cursor
    enumerates precisely the distinct values of ``role`` among matching
    triples; inexact cursors over-approximate (implicit roots ignore deeper
    constants) and are only safe when another variable of the same pattern is
    still to be constrained.  ``None`` means this permutation cannot help.
    """
    k = permutation_order.index(role)
    if any(r not in bound for r in permutation_order[:k]):
        return None
    if k == 0:
        return (0, 0, 1), False, 0
    if k == 1:
        if permutation_order[2] in bound:
            return (1, 2, 0), True, 1
        return (1, 1, 1), True, 1
    return (1, 2, 1), True, 2


def build_trie_cursor(trie: PermutationTrie,
                      permutation_order: Tuple[int, int, int],
                      bound: Mapping[int, int], role: int):
    """Materialise the cursor that :func:`plan_trie_cursor` selected."""
    k = permutation_order.index(role)
    if k == 0:
        return trie.root_cursor()
    first = bound[permutation_order[0]]
    if k == 1:
        if permutation_order[2] in bound:
            return trie.middle_cursor(first, bound[permutation_order[2]])
        return trie.children_cursor(first)
    return trie.prefix_cursor(first, bound[permutation_order[1]])


_EMPTY_BLOCK = np.zeros(0, dtype=np.int64)


def trie_value_block(trie: PermutationTrie,
                     permutation_order: Tuple[int, int, int],
                     bound: Mapping[int, int], role: int
                     ) -> Optional[np.ndarray]:
    """Vectorised counterpart of :func:`build_trie_cursor` for exact plans.

    Returns the sorted distinct candidate values as one int64 block without
    constructing any cursor object, or ``None`` when the selected plan has no
    single-block form (implicit root, or the filtered "middle" cursor whose
    per-child membership probes cannot be batched here).
    """
    k = permutation_order.index(role)
    if k == 0:
        return None
    first = bound[permutation_order[0]]
    if k == 1:
        if permutation_order[2] in bound:
            return None
        return trie.children_block(first)
    position = trie.find_child(first, bound[permutation_order[1]])
    if position < 0:
        return _EMPTY_BLOCK
    return trie.pair_children_block(position)


def prefix_page(trie: PermutationTrie, pattern: TriplePattern, offset: int,
                limit: Optional[int]
                ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], bool]:
    """One page of a prefix pattern on ``trie`` as permuted columns.

    The pattern's matches are the level-2 range of its permuted prefix, so
    the page is the slice ``[offset, offset + limit)`` of that range,
    rebuilt without touching the matches before it.  Under a two-component
    prefix the slice is one sibling range: only its third values vary.
    The third permuted component must be a wildcard.
    """
    first, second, _third = PERMUTATIONS[trie.permutation_name].apply_pattern(
        pattern)
    begin, end = trie.prefix_range(first, second)
    lo, hi, has_more = page_window(end - begin, offset, limit)
    if second is None or hi == lo:
        return trie.triples_at(np.arange(begin + lo, begin + hi)), has_more
    thirds = trie.nodes_level2.decode_block_in_range(begin, begin + hi,
                                                     start=begin + lo)
    return ((np.full(thirds.size, first), np.full(thirds.size, second),
             thirds), has_more)


class PermutedTrieIndex(TripleIndex):
    """3T: SPO + POS + OSP permuted tries behind a single pattern interface."""

    name = "3t"

    #: pattern kind -> name of the trie that solves it.
    DISPATCH: Dict[PatternKind, str] = {
        PatternKind.SPO: "spo",
        PatternKind.SP: "spo",
        PatternKind.S: "spo",
        PatternKind.ALL_WILDCARDS: "spo",
        PatternKind.PO: "pos",
        PatternKind.P: "pos",
        PatternKind.SO: "osp",
        PatternKind.O: "osp",
    }

    def __init__(self, tries: Dict[str, PermutationTrie]):
        missing = {"spo", "pos", "osp"} - set(tries)
        if missing:
            raise PatternError(f"3T index requires tries {sorted(missing)}")
        self._tries = tries
        # seek_cursor plans depend only on *which* roles are bound, not on
        # their values, so the (bound-roles, role) -> (trie, exact) decision
        # is memoised; the join engines re-plan the same shape per binding.
        self._cursor_plans: Dict[Tuple[frozenset, int],
                                 Optional[Tuple[str, bool]]] = {}

    # ------------------------------------------------------------------ #
    # TripleIndex interface.
    # ------------------------------------------------------------------ #

    @property
    def num_triples(self) -> int:
        return self._tries["spo"].num_triples

    def trie(self, name: str) -> PermutationTrie:
        """Access one of the materialised permutation tries."""
        return self._tries[name]

    @property
    def tries(self) -> Dict[str, PermutationTrie]:
        """All materialised tries keyed by permutation name."""
        return dict(self._tries)

    def select(self, pattern: PatternLike) -> Iterator[Tuple[int, int, int]]:
        pattern = TriplePattern.from_tuple(pattern)
        trie_name = self.DISPATCH[pattern.kind]
        yield from self._select_on(trie_name, pattern)

    def select_page(self, pattern: PatternLike, offset: int = 0,
                    limit: Optional[int] = None
                    ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """Every shape but the fully bound one is a prefix of the trie it
        dispatches to; a fully bound pattern has at most one match."""
        pattern = TriplePattern.from_tuple(pattern)
        kind = pattern.kind
        if kind is PatternKind.SPO:
            return page_of(self._select_on("spo", pattern), offset, limit)
        return self._page_on(self.DISPATCH[kind], pattern, offset, limit)

    def _page_on(self, trie_name: str, pattern: TriplePattern, offset: int,
                 limit: Optional[int]
                 ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """One page of ``pattern`` on one trie, un-permuted."""
        columns, has_more = prefix_page(self._tries[trie_name], pattern,
                                        offset, limit)
        return PERMUTATIONS[trie_name].invert_columns(columns), has_more

    def _select_on(self, trie_name: str, pattern: TriplePattern
                   ) -> Iterator[Tuple[int, int, int]]:
        """Run the select algorithm of one trie and un-permute the results."""
        trie = self._tries[trie_name]
        permutation = PERMUTATIONS[trie_name]
        first, second, third = permutation.apply_pattern(pattern)
        for permuted in trie.select(first, second, third):
            yield permutation.invert(permuted)

    def size_in_bits(self) -> int:
        return sum(trie.size_in_bits() for trie in self._tries.values())

    def space_breakdown(self) -> Dict[str, int]:
        """Per-trie, per-level space in bits."""
        breakdown: Dict[str, int] = {}
        for name, trie in self._tries.items():
            for component, bits in trie.space_breakdown().items():
                breakdown[f"{name}.{component}"] = bits
        return breakdown

    # ------------------------------------------------------------------ #
    # Seekable successor cursors (the wcoj protocol).
    # ------------------------------------------------------------------ #

    def seek_cursor(self, bound: Mapping[int, int], role: int):
        """Sorted, seekable cursor over candidate values of component ``role``.

        ``bound`` maps roles to the components already fixed (constants plus
        variables bound by outer join levels).  Returns ``(cursor, exact)``
        where ``exact`` tells whether the cursor enumerates precisely the
        distinct ``role`` values of the matching triples (an inexact cursor
        yields a superset), or ``None`` when no materialised permutation can
        serve the shape — the join engine then falls back to materialising
        the candidates through :meth:`select`.
        """
        cached = self._plan(bound, role)
        if cached is None:
            return None
        name, exact = cached
        return self._build_trie_cursor(name, self._tries[name], bound,
                                       role), exact

    def _plan(self, bound: Mapping[int, int], role: int
              ) -> Optional[Tuple[str, bool]]:
        """Memoised ``(trie name, exact)`` decision for one bound shape."""
        plan_key = (frozenset(bound), role)
        cached = self._cursor_plans.get(plan_key, False)
        if cached is not False:
            return cached
        best = None
        for name, trie in self._tries.items():
            plan = plan_trie_cursor(PERMUTATIONS[name].order, bound, role)
            if plan is None:
                continue
            score, exact, _level = plan
            if best is None or score > best[0]:
                best = (score, exact, name, trie)
        if best is None:
            self._cursor_plans[plan_key] = None
            return None
        _score, exact, name, _trie = best
        self._cursor_plans[plan_key] = (name, exact)
        return name, exact

    def select_values(self, bound: Mapping[int, int], role: int
                      ) -> Optional[np.ndarray]:
        """Sorted distinct candidate block without cursor construction.

        Rides the memoised plan: exact prefix/children plans decode their
        sibling range in one vectorised pass; shapes whose plan has no block
        form fall back to the generic cursor-based implementation (which in
        turn returns ``None`` for inexact plans).
        """
        cached = self._plan(bound, role)
        if cached is None:
            return None
        name, exact = cached
        if not exact:
            return None
        block = self._block_from_plan(name, bound, role)
        if block is None:
            return super().select_values(bound, role)
        return block

    def _block_from_plan(self, name: str, bound: Mapping[int, int],
                         role: int) -> Optional[np.ndarray]:
        """Decode the chosen plan's block on one trie (hook for subclasses
        whose stored levels need a value rewrite — see
        :class:`repro.core.cross_compression.CrossCompressedIndex`)."""
        return trie_value_block(self._tries[name], PERMUTATIONS[name].order,
                                bound, role)

    def _build_trie_cursor(self, name: str, trie: PermutationTrie,
                           bound: Mapping[int, int], role: int):
        """Materialise the cursor chosen by :meth:`seek_cursor` on one trie.

        A method (not the bare function) so :class:`CrossCompressedIndex` can
        intercept the rank-rewritten POS levels.
        """
        return build_trie_cursor(trie, PERMUTATIONS[name].order, bound, role)

    # ------------------------------------------------------------------ #
    # Introspection used by the experiments.
    # ------------------------------------------------------------------ #

    def dispatch_trie(self, pattern: PatternLike) -> str:
        """Name of the trie a pattern is routed to (used by the benchmarks)."""
        return self.DISPATCH[TriplePattern.from_tuple(pattern).kind]

    def children_statistics(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Table 2: per-trie children statistics."""
        return {name: trie.children_statistics() for name, trie in self._tries.items()}
