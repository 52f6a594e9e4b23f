"""The two-trie indexes 2Tp and 2To (paper Section 3.3).

Observing that subjects have very few predicate children, the paper pattern
matches ``S?O`` directly on the SPO permutation with the ``enumerate``
algorithm (Fig. 5), which makes the OSP permutation unnecessary.  Five of the
eight patterns are then solved by SPO alone; a second permutation covers two
more, and the final pattern falls back to the ``inverted`` algorithm:

* **2Tp** (predicate-based) keeps **POS**: ``?PO`` and ``?P?`` are select
  queries on POS, while ``??O`` is answered by probing the children of every
  predicate for the object (``|P|`` find operations).
* **2To** (object-based) keeps **OPS**: ``?PO`` and ``??O`` are select queries
  on OPS, while ``?P?`` walks the auxiliary two-level ``PS`` structure (all
  subjects of a predicate) and pattern matches ``s p ?`` on SPO for each.

2Tp is the configuration the paper elects for the state-of-the-art comparison
(Tables 5 and 6) because POS is cheaper to store than OPS.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.base import PatternLike, TripleIndex, page_of
from repro.core.index_3t import (build_trie_cursor, plan_trie_cursor,
                                 prefix_page, trie_value_block)
from repro.core.pairs import PairStructure
from repro.core.patterns import PatternKind, TriplePattern
from repro.core.permutations import PERMUTATIONS
from repro.core.trie import PermutationTrie, page_positions
from repro.errors import IndexBuildError, PatternError
from repro.rdf.triples import OBJECT, PREDICATE, SUBJECT


#: Pattern kinds both variants answer on SPO.
_SPO_KINDS = (PatternKind.SPO, PatternKind.SP, PatternKind.S,
              PatternKind.ALL_WILDCARDS)


class TwoTrieIndex(TripleIndex):
    """2T: SPO plus one additional permutation (POS for 2Tp, OPS for 2To)."""

    def __init__(self, spo: PermutationTrie, second_trie: PermutationTrie,
                 variant: str, ps_structure: Optional[PairStructure] = None):
        if variant not in ("p", "o"):
            raise IndexBuildError("variant must be 'p' (2Tp) or 'o' (2To)")
        expected = "pos" if variant == "p" else "ops"
        if second_trie.permutation_name != expected:
            raise IndexBuildError(
                f"2T{variant} requires the {expected.upper()} permutation, "
                f"got {second_trie.permutation_name.upper()}")
        if variant == "o" and ps_structure is None:
            raise IndexBuildError("2To requires the auxiliary PS structure")
        self._spo = spo
        self._second = second_trie
        self._variant = variant
        self._ps = ps_structure
        # Memoised seek_cursor decisions, keyed by (bound roles, role): the
        # plan depends only on the bound *shape*, never on the values.
        self._cursor_plans: Dict[Tuple[frozenset, int],
                                 Optional[Tuple[str, bool]]] = {}

    # ------------------------------------------------------------------ #
    # Properties.
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"2t{self._variant}"

    @property
    def variant(self) -> str:
        """``"p"`` for 2Tp, ``"o"`` for 2To."""
        return self._variant

    @property
    def num_triples(self) -> int:
        return self._spo.num_triples

    def trie(self, name: str) -> PermutationTrie:
        """Access one of the two materialised tries by permutation name."""
        if name == "spo":
            return self._spo
        if name == self._second.permutation_name:
            return self._second
        raise KeyError(f"trie {name!r} is not materialised by 2T{self._variant}")

    @property
    def ps_structure(self) -> Optional[PairStructure]:
        """The auxiliary predicate -> subjects structure (2To only)."""
        return self._ps

    # ------------------------------------------------------------------ #
    # Pattern matching.
    # ------------------------------------------------------------------ #

    def select(self, pattern: PatternLike) -> Iterator[Tuple[int, int, int]]:
        pattern = TriplePattern.from_tuple(pattern)
        kind = pattern.kind
        if kind in _SPO_KINDS:
            yield from self._select_on("spo", pattern)
        elif kind is PatternKind.SO:
            yield from self._enumerate(pattern)
        elif self._variant == "p":
            if kind in (PatternKind.PO, PatternKind.P):
                yield from self._select_on("pos", pattern)
            elif kind is PatternKind.O:
                yield from self._inverted_object(pattern.object)
            else:  # pragma: no cover - all kinds are handled above
                raise PatternError(f"unhandled pattern kind {kind}")
        else:
            if kind in (PatternKind.PO, PatternKind.O):
                yield from self._select_on("ops", pattern)
            elif kind is PatternKind.P:
                yield from self._inverted_predicate(pattern.predicate)
            else:  # pragma: no cover - all kinds are handled above
                raise PatternError(f"unhandled pattern kind {kind}")

    def select_page(self, pattern: PatternLike, offset: int = 0,
                    limit: Optional[int] = None
                    ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """Prefix shapes and 2Tp's ``??O`` seek to the page by position;
        ``SPO`` (at most one match), ``S?O`` and 2To's ``?P?`` enumerate
        past the offset."""
        pattern = TriplePattern.from_tuple(pattern)
        kind = pattern.kind
        if kind is PatternKind.SPO:
            return page_of(self._select_on("spo", pattern), offset, limit)
        if kind is PatternKind.SO:
            return page_of(self._enumerate(pattern), offset, limit)
        if kind is PatternKind.O and self._variant == "p":
            return self._inverted_object_page(pattern.object, offset, limit)
        if kind is PatternKind.P and self._variant == "o":
            return page_of(self._inverted_predicate(pattern.predicate),
                           offset, limit)
        trie = self._spo if kind in _SPO_KINDS else self._second
        columns, has_more = prefix_page(trie, pattern, offset, limit)
        return (PERMUTATIONS[trie.permutation_name].invert_columns(columns),
                has_more)

    def _inverted_object_page(self, object_id: int, offset: int,
                              limit: Optional[int]
                              ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """One page of 2Tp's ``??O``: probe every predicate for the object
        at once, then read the page across the matching POS ranges."""
        trie = self._second
        begins, ends = trie.second_ranges(object_id)
        positions, has_more = page_positions(begins, ends, offset, limit)
        return (PERMUTATIONS["pos"].invert_columns(trie.triples_at(positions)),
                has_more)

    def _select_on(self, trie_name: str, pattern: TriplePattern
                   ) -> Iterator[Tuple[int, int, int]]:
        trie = self._spo if trie_name == "spo" else self._second
        permutation = PERMUTATIONS[trie_name]
        first, second, third = permutation.apply_pattern(pattern)
        for permuted in trie.select(first, second, third):
            yield permutation.invert(permuted)

    def _enumerate(self, pattern: TriplePattern) -> Iterator[Tuple[int, int, int]]:
        """S?O on SPO with the enumerate algorithm (Fig. 5)."""
        for subject, predicate, object_id in self._spo.enumerate_pairs(
                pattern.subject, pattern.object):
            yield (subject, predicate, object_id)

    def _inverted_object(self, object_id: Optional[int]) -> Iterator[Tuple[int, int, int]]:
        """??O on 2Tp: probe every predicate's children for the object on POS."""
        if object_id is None:
            raise PatternError("??O requires a bound object")
        trie = self._second  # POS
        for predicate in range(trie.num_first):
            position = trie.find_child(predicate, object_id)
            if position < 0:
                continue
            child_begin, child_end = trie.pair_children_range(position)
            for subject in trie.scan_third(child_begin, child_end):
                yield (subject, predicate, object_id)

    def _inverted_predicate(self, predicate: Optional[int]) -> Iterator[Tuple[int, int, int]]:
        """?P? on 2To: for every subject of the predicate, match s p ? on SPO."""
        if predicate is None:
            raise PatternError("?P? requires a bound predicate")
        assert self._ps is not None
        for subject in self._ps.values_of(predicate):
            for s, p, o in self._spo.select(subject, predicate, None):
                yield (s, p, o)

    # ------------------------------------------------------------------ #
    # Seekable successor cursors (the wcoj protocol).
    # ------------------------------------------------------------------ #

    def seek_cursor(self, bound: Mapping[int, int], role: int):
        """Sorted, seekable cursor over candidate values of component ``role``.

        Same contract as :meth:`PermutedTrieIndex.seek_cursor`, restricted to
        the two materialised tries; 2To additionally serves ``?P? -> subject``
        successors exactly from its auxiliary PS structure.
        """
        plan_key = (frozenset(bound), role)
        cached = self._cursor_plans.get(plan_key, False)
        if cached is False:
            cached = self._plan_seek_cursor(bound, role)
            self._cursor_plans[plan_key] = cached
        if cached is None:
            return None
        name, exact = cached
        if name == "ps":
            return self._ps.cursor_of(bound[PREDICATE]), exact
        trie = self._spo if name == "spo" else self._second
        return build_trie_cursor(trie, PERMUTATIONS[name].order, bound,
                                 role), exact

    def select_values(self, bound: Mapping[int, int], role: int):
        """Sorted distinct candidate block without cursor construction.

        Mirrors :meth:`PermutedTrieIndex.select_values`: exact trie plans
        decode their sibling range in one vectorised pass; the auxiliary PS
        plan and block-less shapes fall back to the generic cursor path.
        """
        plan_key = (frozenset(bound), role)
        cached = self._cursor_plans.get(plan_key, False)
        if cached is False:
            cached = self._plan_seek_cursor(bound, role)
            self._cursor_plans[plan_key] = cached
        if cached is None:
            return None
        name, exact = cached
        if not exact:
            return None
        if name != "ps":
            trie = self._spo if name == "spo" else self._second
            block = trie_value_block(trie, PERMUTATIONS[name].order, bound,
                                     role)
            if block is not None:
                return block
        return super().select_values(bound, role)

    def _plan_seek_cursor(self, bound: Mapping[int, int], role: int
                          ) -> Optional[Tuple[str, bool]]:
        """The (trie name, exact) decision behind :meth:`seek_cursor`."""
        best = None
        for name, trie in (("spo", self._spo),
                           (self._second.permutation_name, self._second)):
            plan = plan_trie_cursor(PERMUTATIONS[name].order, bound, role)
            if plan is None:
                continue
            score, exact, _level = plan
            if best is None or score > best[0]:
                best = (score, exact, name, trie)
        # The PS structure lists the distinct subjects of a predicate: an
        # exact successor source for the (?s, p, ?o) shape that neither SPO
        # nor OPS can answer without a scan.
        if (self._ps is not None and role == SUBJECT and PREDICATE in bound
                and SUBJECT not in bound and OBJECT not in bound):
            ps_score = (1, 1, 1)
            if best is None or ps_score > best[0]:
                return "ps", True
        if best is None:
            return None
        _score, exact, name, _trie = best
        return name, exact

    # ------------------------------------------------------------------ #
    # Space accounting.
    # ------------------------------------------------------------------ #

    def size_in_bits(self) -> int:
        total = self._spo.size_in_bits() + self._second.size_in_bits()
        if self._ps is not None:
            total += self._ps.size_in_bits()
        return total

    def space_breakdown(self) -> Dict[str, int]:
        breakdown: Dict[str, int] = {}
        for name, trie in (("spo", self._spo),
                           (self._second.permutation_name, self._second)):
            for component, bits in trie.space_breakdown().items():
                breakdown[f"{name}.{component}"] = bits
        if self._ps is not None:
            for component, bits in self._ps.space_breakdown().items():
                breakdown[f"ps.{component}"] = bits
        return breakdown
