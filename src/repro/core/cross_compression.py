"""The cross-compressed index (CC, paper Section 3.2).

The 3T layout stores every triple three times, so the permutations contain
redundant information.  Cross compression exploits the property that the
children of a node ``x`` in the *second* level of trie ``j`` are a subset of
the children of ``x`` in the *first* level of trie ``i`` (with
``j = (i + 2) mod 3``): the larger enclosing children list can act as a code
book.

Following the paper's analysis, only the rewrite that pays off is applied: the
**third level of POS** (subject children of a (predicate, object) pair) is
re-written as positions within the children of the object in the **first level
of OSP** (all subjects co-occurring with that object).  Because objects have
very few subject children on average (< 3 on the paper's datasets), those
positions need only a couple of bits instead of 20+ bits per subject ID.

The price is the ``unmap`` indirection (Fig. 4): every subject returned by a
pattern solved on POS (``?PO`` and ``?P?``) costs one extra random access into
OSP's second level, which the paper measures as a roughly 3x slowdown for
``?PO``.  To keep that access cheap the OSP level-1 node sequence is stored
with the Compact codec, exactly as the paper recommends.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.base import PatternLike
from repro.core.index_3t import PermutedTrieIndex, prefix_page
from repro.core.patterns import PatternKind, TriplePattern
from repro.core.permutations import PERMUTATIONS
from repro.core.trie import (
    ArrayCursor,
    FilteredChildrenCursor,
    FunctionCursor,
    PermutationTrie,
)
from repro.errors import IndexBuildError
from repro.sequences.base import NOT_FOUND


def compute_cross_compressed_third_level(pos_first: np.ndarray, pos_second: np.ndarray,
                                         pos_third: np.ndarray) -> np.ndarray:
    """Rewrite POS third-level subjects as ranks within their object's subject list.

    ``pos_first``/``pos_second``/``pos_third`` are the POS-sorted predicate,
    object and subject columns.  For every triple, the stored value becomes the
    rank of the subject among the *distinct* subjects co-occurring with the
    object (i.e. its position among the children of the object in the first
    level of the OSP trie).
    """
    objects = pos_second
    subjects = pos_third
    if objects.size != subjects.size or objects.size != pos_first.size:
        raise IndexBuildError("POS columns must have equal length")
    if objects.size == 0:
        return np.zeros(0, dtype=np.int64)
    # Distinct (object, subject) pairs in sorted order = children lists of the
    # OSP first level.
    pairs = np.unique(np.stack([objects, subjects], axis=1), axis=0)
    pair_objects = pairs[:, 0]
    # Rank of each pair within its object group.
    group_starts = np.searchsorted(pair_objects, pair_objects)
    ranks_within_group = np.arange(pairs.shape[0]) - group_starts
    # Locate each triple's (object, subject) pair with a single searchsorted on
    # a combined key.
    max_subject = int(subjects.max()) + 1
    pair_keys = pair_objects.astype(np.int64) * max_subject + pairs[:, 1]
    triple_keys = objects.astype(np.int64) * max_subject + subjects
    positions = np.searchsorted(pair_keys, triple_keys)
    return ranks_within_group[positions].astype(np.int64)


class CrossCompressedIndex(PermutedTrieIndex):
    """CC: the 3T index with the POS third level cross-compressed through OSP."""

    name = "cc"

    def __init__(self, tries: Dict[str, PermutationTrie]):
        super().__init__(tries)

    # ------------------------------------------------------------------ #
    # unmap (Fig. 4): recover a subject ID from its rank within the children
    # of the object in OSP's first level.
    # ------------------------------------------------------------------ #

    def unmap_subject(self, object_id: int, rank: int) -> int:
        """Recover the subject stored as ``rank`` under ``object_id``."""
        return self._tries["osp"].child_by_rank(object_id, rank)

    def map_subject(self, object_id: int, subject_id: int) -> int:
        """Rank of ``subject_id`` among the subjects of ``object_id`` (the map)."""
        return self._tries["osp"].child_rank(object_id, subject_id)

    # ------------------------------------------------------------------ #
    # Pattern matching: POS-dispatched patterns need the unmap step.
    # ------------------------------------------------------------------ #

    def select(self, pattern: PatternLike) -> Iterator[Tuple[int, int, int]]:
        pattern = TriplePattern.from_tuple(pattern)
        kind = pattern.kind
        if kind in (PatternKind.PO, PatternKind.P):
            yield from self._select_on_pos_unmapping(pattern)
        else:
            yield from super().select(pattern)

    def _page_on(self, trie_name: str, pattern: TriplePattern, offset: int,
                 limit: Optional[int]
                 ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """POS pages unmap their ranks in the same vectorised pass: the
        subject of ``(p, o, rank)`` is OSP level 1 at ``osp.ptr0[o] + rank``."""
        if trie_name != "pos":
            return super()._page_on(trie_name, pattern, offset, limit)
        (predicates, objects, ranks), has_more = prefix_page(
            self._tries["pos"], pattern, offset, limit)
        subjects = self._tries["osp"].children_at(objects, ranks)
        return (PERMUTATIONS["pos"].invert_columns(
            (predicates, objects, subjects)), has_more)

    # ------------------------------------------------------------------ #
    # Seekable successor cursors: POS stores ranks in its third level, so the
    # deep POS cursors must translate through the unmap indirection.  The
    # rank sequence under one (predicate, object) pair is strictly increasing
    # and unmap is monotone in the rank, so the translated stream stays
    # sorted and seekable (by binary search over the rank positions).
    # ------------------------------------------------------------------ #

    def _build_trie_cursor(self, name: str, trie: PermutationTrie,
                           bound: Mapping[int, int], role: int):
        order = PERMUTATIONS[name].order
        k = order.index(role)
        if name != "pos" or k == 0:
            return super()._build_trie_cursor(name, trie, bound, role)
        predicate = bound[order[0]]
        if k == 2:
            # Subjects of (predicate, object): unmap each stored rank.
            object_id = bound[order[1]]
            position = trie.find_child(predicate, object_id)
            if position == NOT_FOUND:
                return ArrayCursor([])
            begin, end = trie.pair_children_range(position)
            def subject_at(i: int) -> int:
                return self.unmap_subject(object_id,
                                          trie.third_at(begin, end, i))
            return FunctionCursor(subject_at, begin, end)
        if order[2] in bound:
            # Objects of predicate that have the bound subject: map the
            # subject to its rank under each candidate object, then probe
            # the rank among the pair's stored children.
            subject = bound[order[2]]
            level1_begin, level1_end = trie.children_range(predicate)
            def has_subject(pair_position: int) -> bool:
                object_id = trie.second_at(level1_begin, level1_end,
                                           pair_position)
                rank = self.map_subject(object_id, subject)
                if rank == NOT_FOUND:
                    return False
                begin, end = trie.pair_children_range(pair_position)
                return trie.find_third(begin, end, rank) != NOT_FOUND
            return FilteredChildrenCursor(trie, predicate, has_subject)
        # Level-1 objects are stored verbatim; the default cursor is fine.
        return super()._build_trie_cursor(name, trie, bound, role)

    def _block_from_plan(self, name: str, bound: Mapping[int, int],
                         role: int):
        if name == "pos" and PERMUTATIONS["pos"].order.index(role) == 2:
            # The deep POS level stores subject *ranks*: decoding the raw
            # block would skip the unmap indirection.  Fall back to the
            # generic cursor path, which routes through the FunctionCursor
            # built by :meth:`_build_trie_cursor`.
            return None
        return super()._block_from_plan(name, bound, role)

    def _select_on_pos_unmapping(self, pattern: TriplePattern
                                 ) -> Iterator[Tuple[int, int, int]]:
        trie = self._tries["pos"]
        permutation = PERMUTATIONS["pos"]
        first, second, third = permutation.apply_pattern(pattern)
        if third is not None:
            raise IndexBuildError(
                "patterns binding the subject are never dispatched to the "
                "cross-compressed POS trie")
        for predicate, object_id, rank in trie.select(first, second, None):
            subject = self.unmap_subject(object_id, rank)
            yield (subject, predicate, object_id)
