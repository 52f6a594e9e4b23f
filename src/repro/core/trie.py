"""The 3-level trie of the paper (Section 3.1) and its pattern matching
algorithms.

One :class:`PermutationTrie` stores all triples under a fixed permutation of
the components.  Nodes of a level are concatenated into a single integer
sequence; sibling groups are delimited by pointer sequences.  The first level
is implicit (IDs are dense ``0 .. n-1``), so it contributes pointers only, and
the last level has no pointers:

``levels[0].pointers`` — where the children of first-level node ``i`` start;
``levels[1].nodes``    — second components of the distinct (first, second) pairs;
``levels[1].pointers`` — where the children of pair ``j`` start;
``levels[2].nodes``    — third components of all triples.

Three algorithms operate on this layout:

* :meth:`PermutationTrie.select` — Fig. 2 of the paper, for patterns whose
  bound components are a prefix of the permutation;
* :meth:`PermutationTrie.enumerate_pairs` — Fig. 5, for the S?O pattern on the
  SPO trie (first and third bound, second free);
* full scans for the ``???`` pattern.

A prefix's matches are one contiguous level-2 range, so a page of them is
answered by position (:meth:`PermutationTrie.prefix_range`,
:func:`page_window`, :meth:`PermutationTrie.triples_at`) without
enumerating the matches before it.

On top of those, the module provides *seekable cursors* — sorted streams of
sibling values supporting ``seek(value)`` (jump to the first element >= value)
backed by the Elias-Fano ``next_geq`` machinery.  They are the successor-list
protocol the leapfrog-style worst-case-optimal join engine
(:mod:`repro.queries.wcoj`) intersects level by level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError
from repro.sequences.base import NOT_FOUND
from repro.sequences.elias_fano import EliasFano
from repro.sequences.factory import make_ranged_sequence
from repro.sequences.prefix_sum import RangedSequence


# --------------------------------------------------------------------------- #
# Seekable cursors: the successor-list protocol of the multiway join engine.
#
# Every cursor exposes one attribute and two methods:
#
# ``key``       — the current element, or ``None`` once exhausted;
# ``advance()`` — move past the current element;
# ``seek(v)``   — move to the first element >= ``v`` (no-op if key >= v).
#
# Elements are distinct and strictly increasing, which every trie sibling
# range guarantees (triples are deduplicated).
#
# Cursors backed by decodable storage additionally expose
#
# ``remaining_block()`` — every element from the current key (inclusive) to
#                         the end, as one sorted ``numpy.int64`` array,
#                         without moving the cursor.
#
# The join engines probe for it with ``getattr`` and fall back to the scalar
# protocol where it is absent (e.g. predicate-filtered cursors, for which a
# block would cost as much as the scalar walk).
# --------------------------------------------------------------------------- #


class RangeCursor:
    """Cursor over the virtual dense range ``[begin, end)`` (implicit level 0)."""

    __slots__ = ("_end", "key")

    def __init__(self, begin: int, end: int):
        self._end = end
        self.key: Optional[int] = begin if begin < end else None

    @property
    def end(self) -> int:
        """Exclusive upper bound of the virtual range.

        The join engine reads this to collapse an implicit-root cursor into
        a clip on an already-vectorised intersection instead of stepping the
        whole dense domain through the leapfrog.
        """
        return self._end

    def advance(self) -> None:
        position = self.key + 1
        self.key = position if position < self._end else None

    def seek(self, value: int) -> None:
        if self.key is None or value <= self.key:
            return
        self.key = value if value < self._end else None

    def remaining_block(self) -> np.ndarray:
        if self.key is None:
            return np.zeros(0, dtype=np.int64)
        return np.arange(self.key, self._end, dtype=np.int64)


class ArrayCursor:
    """Cursor over a materialised sorted list of distinct values."""

    __slots__ = ("_values", "_position", "_end", "key")

    def __init__(self, values: Sequence[int]):
        self._values = values
        self._position = 0
        self._end = len(values)
        self.key: Optional[int] = values[0] if values else None

    def advance(self) -> None:
        self._position += 1
        self.key = (self._values[self._position]
                    if self._position < self._end else None)

    def seek(self, value: int) -> None:
        if self.key is None or value <= self.key:
            return
        position = bisect_left(self._values, value, self._position, self._end)
        self._position = position
        self.key = self._values[position] if position < self._end else None

    def remaining_block(self) -> np.ndarray:
        if self.key is None:
            return np.zeros(0, dtype=np.int64)
        return np.asarray(self._values[self._position:self._end],
                          dtype=np.int64)


class LevelCursor:
    """Cursor over one encoded sibling range ``[begin, end)`` of a trie level.

    ``seek`` delegates to the codec's ``next_geq`` (Elias-Fano ``select0`` /
    PEF partition pruning), so a successor jump costs far less than scanning.
    """

    __slots__ = ("_nodes", "_begin", "_end", "_position", "key")

    def __init__(self, nodes: RangedSequence, begin: int, end: int):
        self._nodes = nodes
        self._begin = begin
        self._end = end
        self._position = begin
        self.key: Optional[int] = (nodes.access_in_range(begin, end, begin)
                                   if begin < end else None)

    def advance(self) -> None:
        self._position += 1
        if self._position < self._end:
            self.key = self._nodes.access_in_range(self._begin, self._end,
                                                   self._position)
        else:
            self.key = None

    def seek(self, value: int) -> None:
        if self.key is None or value <= self.key:
            return
        position, element = self._nodes.next_geq_in_range(
            self._begin, self._end, value)
        if position < self._end:
            self._position = position
            self.key = element
        else:
            self._position = self._end
            self.key = None

    def remaining_block(self) -> np.ndarray:
        """All elements from the current position to the range end, decoded
        with the codec's batch kernel (one vectorised pass, no Python loop)."""
        if self.key is None:
            return np.zeros(0, dtype=np.int64)
        return self._nodes.decode_block_in_range(self._begin, self._end,
                                                 start=self._position)


class FunctionCursor:
    """Cursor over a strictly increasing function of positions ``[begin, end)``.

    Used where stored values need a monotone indirection before comparison —
    e.g. the cross-compressed POS third level, whose stored ranks map through
    ``unmap`` to increasing subject IDs.
    """

    __slots__ = ("_fn", "_position", "_end", "key")

    def __init__(self, fn: Callable[[int], int], begin: int, end: int):
        self._fn = fn
        self._position = begin
        self._end = end
        self.key: Optional[int] = fn(begin) if begin < end else None

    def advance(self) -> None:
        self._position += 1
        self.key = (self._fn(self._position)
                    if self._position < self._end else None)

    def seek(self, value: int) -> None:
        if self.key is None or value <= self.key:
            return
        fn = self._fn
        lo, hi = self._position + 1, self._end
        while lo < hi:
            mid = (lo + hi) // 2
            if fn(mid) < value:
                lo = mid + 1
            else:
                hi = mid
        self._position = lo
        self.key = fn(lo) if lo < self._end else None

    def remaining_block(self) -> np.ndarray:
        """Remaining elements as an array.

        The indirection function runs once per element, so this is no faster
        than the scalar walk — it exists so callers intersecting several
        cursors can use one code path.
        """
        if self.key is None:
            return np.zeros(0, dtype=np.int64)
        fn = self._fn
        return np.fromiter((fn(p) for p in range(self._position, self._end)),
                           dtype=np.int64, count=self._end - self._position)


class FilteredChildrenCursor:
    """Cursor over the level-1 children of ``first`` that pass a predicate.

    The predicate receives the absolute level-1 position of a child; the
    canonical use is the ``enumerate`` shape (Fig. 5): children ``second`` of
    ``first`` whose pair ``(first, second)`` has ``third`` among its children.
    """

    __slots__ = ("_trie", "_begin", "_end", "_position", "_predicate", "key")

    def __init__(self, trie: "PermutationTrie", first: int,
                 predicate: Callable[[int], bool]):
        self._trie = trie
        begin, end = trie.children_range(first)
        self._begin = begin
        self._end = end
        self._predicate = predicate
        self._position = begin
        self.key: Optional[int] = None
        self._settle()

    def _settle(self) -> None:
        """Move forward to the next position passing the predicate."""
        while self._position < self._end:
            if self._predicate(self._position):
                self.key = self._trie.second_at(self._begin, self._end,
                                                self._position)
                return
            self._position += 1
        self.key = None

    def advance(self) -> None:
        self._position += 1
        self._settle()

    def seek(self, value: int) -> None:
        if self.key is None or value <= self.key:
            return
        position, _ = self._trie.nodes_level1.next_geq_in_range(
            self._begin, self._end, value)
        self._position = position
        self._settle()


def page_window(total: int, offset: int, limit: Optional[int]
                ) -> Tuple[int, int, bool]:
    """Rows ``[start, stop)`` of a ``total``-row result that make the page
    at ``offset`` (``limit=None`` reads to the end), and whether rows
    follow it."""
    start = min(offset, total)
    stop = total if limit is None else min(total, start + limit)
    return start, stop, stop < total


def page_positions(begins: np.ndarray, ends: np.ndarray, offset: int,
                   limit: Optional[int]) -> Tuple[np.ndarray, bool]:
    """Positions of the page at ``offset`` over the ranges
    ``[begins[k], ends[k])`` read one after the other, and whether rows
    follow it."""
    lengths = ends - begins
    stops = np.cumsum(lengths)
    start, stop, has_more = page_window(int(stops[-1]) if stops.size else 0,
                                        offset, limit)
    rows = np.arange(start, stop, dtype=np.int64)
    ranges = np.searchsorted(stops, rows, side="right")
    positions = begins[ranges] + (rows - (stops[ranges] - lengths[ranges]))
    return positions, has_more


@dataclass(frozen=True)
class TrieConfig:
    """Codec selection for the levels of one trie.

    The paper's preferred configuration (Section 3.1, "Performance") uses PEF
    for all node sequences except the last level of SPO, which uses Compact,
    and plain EF for all pointer sequences.  Pointer codecs other than EF are
    not needed in practice, so only the node codecs are configurable here.
    """

    level1_nodes: str = "pef"
    level2_nodes: str = "pef"
    codec_options: Dict[str, dict] = field(default_factory=dict)

    def options_for(self, codec: str) -> dict:
        """Extra keyword arguments for ``codec`` (e.g. PEF partition size)."""
        return self.codec_options.get(codec, {})


class PermutationTrie:
    """A 3-level trie over one permutation of the triples."""

    __slots__ = ("permutation_name", "config", "_num_first", "_num_pairs",
                 "_num_triples", "_pointers0", "_nodes1", "_pointers1", "_nodes2",
                 "_ptr0_decoded", "_ptr1_decoded", "_ptr_ops")

    #: Scalar pointer lookups tolerated before the Elias-Fano pointer arrays
    #: are mirrored into plain numpy arrays (same adaptive warm-up contract
    #: as :class:`repro.sequences.RangedSequence` — derived state, never
    #: persisted, so O(1) loads stay O(1) for one-shot lookups).
    ADAPTIVE_DECODE_THRESHOLD = 64

    def __init__(self, permutation_name: str, config: TrieConfig, num_first: int,
                 pointers0: EliasFano, nodes1: RangedSequence, pointers1: EliasFano,
                 nodes2: RangedSequence, num_triples: int):
        self.permutation_name = permutation_name
        self.config = config
        self._num_first = num_first
        self._pointers0 = pointers0
        self._nodes1 = nodes1
        self._pointers1 = pointers1
        self._nodes2 = nodes2
        self._num_pairs = len(nodes1)
        self._num_triples = num_triples
        self._ptr0_decoded: Optional[np.ndarray] = None
        self._ptr1_decoded: Optional[np.ndarray] = None
        self._ptr_ops = 0

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sorted_columns(cls, first: np.ndarray, second: np.ndarray, third: np.ndarray,
                            permutation_name: str = "spo",
                            config: Optional[TrieConfig] = None,
                            num_first: Optional[int] = None,
                            third_override: Optional[np.ndarray] = None
                            ) -> "PermutationTrie":
        """Build from columns already sorted lexicographically by (first, second, third).

        ``third_override`` replaces the stored third-level values (used by the
        cross-compression transform) while grouping is still derived from the
        original columns.
        """
        config = config or TrieConfig()
        n = int(first.size)
        if not (first.size == second.size == third.size):
            raise IndexBuildError("trie columns must have equal length")

        if num_first is None:
            num_first = int(first.max()) + 1 if n else 1

        # Level 0 pointers: for each first-level ID, where its (first, second)
        # pairs start in the level-1 node sequence.  First find the distinct
        # (first, second) pairs.  Zero triples yields a structurally valid
        # empty trie (all pointer ranges collapse to [0, 0)).
        pair_change = np.empty(n, dtype=bool)
        if n:
            pair_change[0] = True
            pair_change[1:] = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
        pair_starts = np.nonzero(pair_change)[0]
        pair_first = first[pair_starts]
        pair_second = second[pair_starts]
        num_pairs = int(pair_starts.size)

        pointers0_values = np.searchsorted(pair_first, np.arange(num_first + 1))
        pointers1_values = np.append(pair_starts, n)

        stored_third = third if third_override is None else third_override
        if stored_third.size != n:
            raise IndexBuildError("third_override must have one value per triple")

        pointers0 = EliasFano.from_values(pointers0_values.tolist())
        pointers1 = EliasFano.from_values(pointers1_values.tolist())
        nodes1 = make_ranged_sequence(
            pair_second.tolist(), pointers0_values.tolist(), config.level1_nodes,
            **config.options_for(config.level1_nodes))
        nodes2 = make_ranged_sequence(
            stored_third.tolist(), pointers1_values.tolist(), config.level2_nodes,
            **config.options_for(config.level2_nodes))
        return cls(permutation_name, config, num_first, pointers0, nodes1,
                   pointers1, nodes2, n)

    # ------------------------------------------------------------------ #
    # Basic accessors.
    # ------------------------------------------------------------------ #

    @property
    def num_first(self) -> int:
        """Number of first-level (implicit) nodes."""
        return self._num_first

    @property
    def nodes_level1(self) -> RangedSequence:
        """The encoded second-level node sequence (read-only)."""
        return self._nodes1

    @property
    def nodes_level2(self) -> RangedSequence:
        """The encoded third-level node sequence (read-only)."""
        return self._nodes2

    @property
    def num_pairs(self) -> int:
        """Number of second-level nodes (distinct first-second pairs)."""
        return self._num_pairs

    @property
    def num_triples(self) -> int:
        """Number of third-level nodes, i.e. triples."""
        return self._num_triples

    def _pointers0_mirror(self) -> np.ndarray:
        """The level-0 pointers as a plain array (decoded once)."""
        if self._ptr0_decoded is None:
            self._ptr0_decoded = self._pointers0.decode_block(
                0, len(self._pointers0))
        return self._ptr0_decoded

    def _pointers1_mirror(self) -> np.ndarray:
        """The level-1 pointers as a plain array (decoded once)."""
        if self._ptr1_decoded is None:
            self._ptr1_decoded = self._pointers1.decode_block(
                0, len(self._pointers1))
        return self._ptr1_decoded

    def children_range(self, first_id: int) -> Tuple[int, int]:
        """Range ``[begin, end)`` of first_id's children in the level-1 sequence."""
        if not 0 <= first_id < self._num_first:
            return (0, 0)
        ptr = self._ptr0_decoded
        if ptr is None:
            self._ptr_ops += 1
            if self._ptr_ops < self.ADAPTIVE_DECODE_THRESHOLD:
                return (self._pointers0.access(first_id),
                        self._pointers0.access(first_id + 1))
            ptr = self._pointers0_mirror()
        return (int(ptr[first_id]), int(ptr[first_id + 1]))

    def pair_children_range(self, pair_position: int) -> Tuple[int, int]:
        """Range ``[begin, end)`` of a level-1 node's children in the level-2 sequence."""
        ptr = self._ptr1_decoded
        if ptr is None:
            self._ptr_ops += 1
            if self._ptr_ops < self.ADAPTIVE_DECODE_THRESHOLD:
                return (self._pointers1.access(pair_position),
                        self._pointers1.access(pair_position + 1))
            ptr = self._pointers1_mirror()
        return (int(ptr[pair_position]), int(ptr[pair_position + 1]))

    def second_at(self, begin: int, end: int, position: int) -> int:
        """Level-1 node value at ``position`` within sibling range ``[begin, end)``."""
        return self._nodes1.access_in_range(begin, end, position)

    def third_at(self, begin: int, end: int, position: int) -> int:
        """Level-2 node value at ``position`` within sibling range ``[begin, end)``."""
        return self._nodes2.access_in_range(begin, end, position)

    def scan_third(self, begin: int, end: int) -> Iterator[int]:
        """Decode the level-2 sibling range ``[begin, end)``."""
        return self._nodes2.scan_range(begin, end)

    def children_block(self, first_id: int) -> np.ndarray:
        """All level-1 children of ``first_id`` as one sorted int64 array."""
        begin, end = self.children_range(first_id)
        return self._nodes1.decode_block_in_range(begin, end)

    def third_block(self, begin: int, end: int) -> np.ndarray:
        """The level-2 sibling range ``[begin, end)`` as one int64 array."""
        return self._nodes2.decode_block_in_range(begin, end)

    def pair_children_block(self, pair_position: int) -> np.ndarray:
        """All level-2 children of a level-1 node as one sorted int64 array."""
        begin, end = self.pair_children_range(pair_position)
        return self._nodes2.decode_block_in_range(begin, end)

    def find_third(self, begin: int, end: int, value: int) -> int:
        """Absolute position of ``value`` in the level-2 sibling range, or -1."""
        if begin == end:
            return NOT_FOUND
        return self._nodes2.find_in_range(begin, end, value)

    # ------------------------------------------------------------------ #
    # select — Fig. 2 of the paper.
    # ------------------------------------------------------------------ #

    def select(self, first: Optional[int], second: Optional[int], third: Optional[int]
               ) -> Iterator[Tuple[int, int, int]]:
        """Match a pattern whose bound components form a prefix, plus full lookups.

        Supported shapes (in permuted component order): ``(x, y, z)``,
        ``(x, y, ?)``, ``(x, ?, ?)`` and ``(?, ?, ?)``.  Patterns binding the
        first and third component only belong to :meth:`enumerate_pairs`.
        """
        if first is None:
            if second is not None or third is not None:
                raise IndexBuildError(
                    f"trie {self.permutation_name} cannot select pattern "
                    f"({first}, {second}, {third})")
            yield from self.scan_all()
            return
        if first >= self._num_first:
            return
        begin, end = self.children_range(first)
        if begin == end:
            return
        if second is not None:
            position = self._nodes1.find_in_range(begin, end, second)
            if position == NOT_FOUND:
                return
            yield from self._emit_pairs(first, position, position + 1, third)
        else:
            yield from self._emit_pairs(first, begin, end, third)

    def _emit_pairs(self, first: int, pair_begin: int, pair_end: int,
                    third: Optional[int]) -> Iterator[Tuple[int, int, int]]:
        """Emit matches for the level-1 nodes in ``[pair_begin, pair_end)``."""
        level1_begin, level1_end = self.children_range(first)
        for pair_position in range(pair_begin, pair_end):
            second_value = self._nodes1.access_in_range(level1_begin, level1_end,
                                                        pair_position)
            child_begin, child_end = self.pair_children_range(pair_position)
            if third is not None:
                position = self._nodes2.find_in_range(child_begin, child_end, third)
                if position != NOT_FOUND:
                    yield (first, second_value, third)
            else:
                block = self._nodes2.decode_block_in_range(child_begin, child_end)
                for third_value in block.tolist():
                    yield (first, second_value, third_value)

    def scan_all(self) -> Iterator[Tuple[int, int, int]]:
        """Full scan (the ``???`` pattern), in lexicographic permuted order."""
        for first in range(self._num_first):
            begin, end = self.children_range(first)
            if begin == end:
                continue
            seconds = self._nodes1.decode_block_in_range(begin, end).tolist()
            for offset, pair_position in enumerate(range(begin, end)):
                second_value = seconds[offset]
                child_begin, child_end = self.pair_children_range(pair_position)
                block = self._nodes2.decode_block_in_range(child_begin, child_end)
                for third_value in block.tolist():
                    yield (first, second_value, third_value)

    # ------------------------------------------------------------------ #
    # Paging by position: a prefix's matches are one level-2 range.
    # ------------------------------------------------------------------ #

    def prefix_range(self, first: Optional[int],
                     second: Optional[int]) -> Tuple[int, int]:
        """Level-2 range ``[begin, end)`` of the triples under the permuted
        prefix ``first`` (or ``(first, second)``), in :meth:`select` order.

        No prefix gives the whole level; an absent prefix gives ``(0, 0)``.
        """
        if first is None:
            return 0, self._num_triples
        begin, end = self.children_range(first)
        if begin == end:
            return 0, 0
        if second is None:
            return (self.pair_children_range(begin)[0],
                    self.pair_children_range(end - 1)[1])
        position = self._nodes1.find_in_range(begin, end, second)
        if position == NOT_FOUND:
            return 0, 0
        return self.pair_children_range(position)

    def second_ranges(self, second: int) -> Tuple[np.ndarray, np.ndarray]:
        """Level-2 ranges ``[begins[k], ends[k])`` of every pair
        ``(first, second)`` present, in ``first`` order.

        The batched :meth:`find_child` over every first-level node: one
        :meth:`RangedSequence.find_in_ranges` call on level 1.
        """
        ptr0 = self._pointers0_mirror()
        found = self._nodes1.find_in_ranges(ptr0[:-1], ptr0[1:], second)
        pairs = found[found != NOT_FOUND]
        ptr1 = self._pointers1_mirror()
        return ptr1[pairs], ptr1[pairs + 1]

    def triples_at(self, positions: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The permuted triples at level-2 ``positions`` (ascending) as
        three int64 columns, rebuilt in one vectorised pass.

        Parents come from ``searchsorted`` on the pointer mirrors, values
        from the levels' :meth:`RangedSequence.values_at` gathers.
        """
        if positions.size == 0:
            return positions, positions, positions
        ptr0 = self._pointers0_mirror()
        ptr1 = self._pointers1_mirror()
        pairs = ptr1.searchsorted(positions, side="right") - 1
        firsts = ptr0.searchsorted(pairs, side="right") - 1
        return (firsts, self._nodes1.values_at(pairs, ptr0[firsts]),
                self._nodes2.values_at(positions, ptr1[pairs]))

    def children_at(self, firsts: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`child_by_rank`: the ``ranks[k]``-th level-1
        child of ``firsts[k]`` (the paper's unmap)."""
        if firsts.size == 0:
            return np.zeros(0, dtype=np.int64)
        begins = self._pointers0_mirror()[firsts]
        return self._nodes1.values_at(begins + ranks, begins)

    # ------------------------------------------------------------------ #
    # enumerate — Fig. 5 of the paper (first and third bound, second free).
    # ------------------------------------------------------------------ #

    def enumerate_pairs(self, first: int, third: int) -> Iterator[Tuple[int, int, int]]:
        """For every child ``second`` of ``first``, check whether ``third`` is a
        child of (first, second) and emit the matching triples."""
        if not 0 <= first < self._num_first:
            return
        begin, end = self.children_range(first)
        for pair_position in range(begin, end):
            child_begin, child_end = self.pair_children_range(pair_position)
            position = self._nodes2.find_in_range(child_begin, child_end, third)
            if position != NOT_FOUND:
                second_value = self._nodes1.access_in_range(begin, end, pair_position)
                yield (first, second_value, third)

    # ------------------------------------------------------------------ #
    # Seekable cursors (the wcoj successor-list protocol).
    # ------------------------------------------------------------------ #

    def root_cursor(self) -> RangeCursor:
        """Cursor over the implicit first level: every ID in ``[0, num_first)``.

        Note that IDs whose children range is empty are included — the cursor
        over-approximates the set of populated roots, which the join engine
        compensates for by constraining deeper levels.
        """
        return RangeCursor(0, self._num_first)

    def children_cursor(self, first: int) -> LevelCursor:
        """Seekable cursor over the sorted level-1 children of ``first``."""
        begin, end = self.children_range(first)
        return LevelCursor(self._nodes1, begin, end)

    def pair_children_cursor(self, pair_position: int) -> LevelCursor:
        """Seekable cursor over the sorted level-2 children of a level-1 node."""
        begin, end = self.pair_children_range(pair_position)
        return LevelCursor(self._nodes2, begin, end)

    def prefix_cursor(self, first: int, second: int) -> LevelCursor:
        """Level-2 cursor under the path ``(first, second)`` (empty if absent)."""
        position = self.find_child(first, second)
        if position == NOT_FOUND:
            return LevelCursor(self._nodes2, 0, 0)
        return self.pair_children_cursor(position)

    def middle_cursor(self, first: int, third: int) -> FilteredChildrenCursor:
        """Cursor over the ``second`` values with ``(first, second, third)`` present.

        The seekable counterpart of :meth:`enumerate_pairs` (Fig. 5): children
        of ``first`` whose pair has ``third`` among its level-2 children.
        """
        def has_third(pair_position: int) -> bool:
            begin, end = self.pair_children_range(pair_position)
            return self.find_third(begin, end, third) != NOT_FOUND
        return FilteredChildrenCursor(self, first, has_third)

    # ------------------------------------------------------------------ #
    # Helpers for the inverted algorithm and cross compression.
    # ------------------------------------------------------------------ #

    def find_child(self, first: int, second: int) -> int:
        """Absolute level-1 position of ``second`` among the children of ``first``
        or -1."""
        begin, end = self.children_range(first)
        if begin == end:
            return NOT_FOUND
        return self._nodes1.find_in_range(begin, end, second)

    def child_rank(self, first: int, second: int) -> int:
        """Rank of ``second`` among the children of ``first`` (the paper's map)."""
        position = self.find_child(first, second)
        if position == NOT_FOUND:
            return NOT_FOUND
        begin, _ = self.children_range(first)
        return position - begin

    def child_by_rank(self, first: int, rank: int) -> int:
        """The ``rank``-th child of ``first`` (the paper's unmap)."""
        begin, end = self.children_range(first)
        if not 0 <= rank < end - begin:
            raise IndexError(f"node {first} has no child of rank {rank}")
        return self._nodes1.access_in_range(begin, end, begin + rank)

    def children_of(self, first: int) -> Iterator[int]:
        """Yield the level-1 children values of ``first``."""
        begin, end = self.children_range(first)
        return self._nodes1.scan_range(begin, end)

    def num_children(self, first: int) -> int:
        """Number of level-1 children of ``first``."""
        begin, end = self.children_range(first)
        return end - begin

    def pair_positions_of(self, first: int) -> range:
        """Absolute level-1 positions of the children of ``first``."""
        begin, end = self.children_range(first)
        return range(begin, end)

    # ------------------------------------------------------------------ #
    # Persistence.
    # ------------------------------------------------------------------ #

    def save(self, path) -> int:
        """Persist this trie (all levels and pointers) to ``path``."""
        from repro.storage import save_object
        return save_object(self, path)

    @classmethod
    def load(cls, path) -> "PermutationTrie":
        """Load a trie saved with :meth:`save`; nothing is rebuilt from values."""
        from repro.storage import load_object
        return load_object(path, expected_type=cls)

    # ------------------------------------------------------------------ #
    # Space accounting and statistics.
    # ------------------------------------------------------------------ #

    def size_in_bits(self) -> int:
        """Total space of the trie in bits."""
        return sum(self.space_breakdown().values())

    def space_breakdown(self) -> Dict[str, int]:
        """Bits per component, matching the paper's Table 1 space breakdowns."""
        return {
            "pointers0": self._pointers0.size_in_bits(),
            "nodes1": self._nodes1.size_in_bits(),
            "pointers1": self._pointers1.size_in_bits(),
            "nodes2": self._nodes2.size_in_bits(),
        }

    def children_statistics(self) -> Dict[str, Dict[str, float]]:
        """Average / maximum number of children per node for levels 1 and 2.

        This is the Table 2 statistic that drives the cross-compression and
        enumerate-algorithm arguments of the paper.
        """
        level1_counts = [self.num_children(first) for first in range(self._num_first)]
        level2_counts = [
            self.pair_children_range(j)[1] - self.pair_children_range(j)[0]
            for j in range(self._num_pairs)
        ]
        def _summary(counts: List[int]) -> Dict[str, float]:
            if not counts:
                return {"average": 0.0, "maximum": 0}
            return {"average": float(np.mean(counts)), "maximum": int(np.max(counts))}
        return {"level1": _summary(level1_counts), "level2": _summary(level2_counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PermutationTrie({self.permutation_name}, first={self._num_first}, "
                f"pairs={self._num_pairs}, triples={self._num_triples})")
