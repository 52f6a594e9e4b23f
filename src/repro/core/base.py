"""Common interface shared by the paper's indexes and the baselines.

Every index — 3T, CC, 2Tp, 2To, HDT-FoQ, TripleBit, vertical partitioning,
RDF-3X-like, BitMat-like — answers triple selection patterns through the same
:class:`TripleIndex` interface, which is what lets the benchmark harness treat
them uniformly (as the paper's evaluation does).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import islice
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.patterns import TriplePattern

PatternLike = Union[TriplePattern, Sequence[Optional[int]]]


def page_of(matches: Iterable[Tuple[int, int, int]], offset: int,
            limit: Optional[int]) -> Tuple[List[Tuple[int, int, int]], bool]:
    """The page ``[offset, offset + limit)`` of a match stream, and whether
    any match follows it (``limit=None`` reads to the end)."""
    stop = None if limit is None else offset + limit + 1
    triples = list(islice(matches, offset, stop))
    if limit is None:
        return triples, False
    return triples[:limit], len(triples) > limit


class TripleIndex(ABC):
    """Abstract compressed triple index answering selection patterns."""

    #: Registry name used by the builder and the benchmark harness.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Mandatory interface.
    # ------------------------------------------------------------------ #

    @abstractmethod
    def select(self, pattern: PatternLike) -> Iterator[Tuple[int, int, int]]:
        """Yield every triple matching ``pattern`` in canonical (s, p, o) form."""

    @abstractmethod
    def size_in_bits(self) -> int:
        """Total space of the index payload in bits (dictionary excluded)."""

    @property
    @abstractmethod
    def num_triples(self) -> int:
        """Number of indexed triples."""

    # ------------------------------------------------------------------ #
    # Derived operations.
    # ------------------------------------------------------------------ #

    def count(self, pattern: PatternLike) -> int:
        """Number of triples matching ``pattern``."""
        return sum(1 for _ in self.select(pattern))

    def contains(self, triple: Tuple[int, int, int]) -> bool:
        """Whether the fully-specified ``triple`` is present."""
        s, p, o = triple
        for _ in self.select(TriplePattern(s, p, o)):
            return True
        return False

    def select_page(self, pattern: PatternLike, offset: int = 0,
                    limit: Optional[int] = None
                    ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """One page of :meth:`select`: the matches at positions
        ``[offset, offset + limit)`` in ``select`` order, and whether any
        match follows the page (always ``False`` when ``limit`` is ``None``).

        The default enumerates past the offset; the trie families override
        it to seek to the page by position (see ``PermutationTrie.triples_at``).
        """
        return page_of(self.select(pattern), offset, limit)

    def select_list(self, pattern: PatternLike) -> List[Tuple[int, int, int]]:
        """Materialise the matches of ``pattern`` as a sorted list."""
        return sorted(self.select(pattern))

    def select_values(self, bound: Dict[int, int], role: int):
        """Distinct values of component ``role`` among matching triples, as a
        sorted ``numpy.int64`` array — or ``None`` when no exact block source
        exists for the shape.

        ``bound`` maps roles (0=S, 1=P, 2=O) to fixed constants, exactly as
        in ``seek_cursor``.  The default implementation asks ``seek_cursor``
        for an *exact* cursor exposing ``remaining_block()`` and decodes it
        in one vectorised pass; index families without native cursors (the
        educational baselines) return ``None`` and callers fall back to the
        scalar path.  Overlay indexes override this to apply per-block
        tombstone filtering (see :class:`repro.dynamic.SnapshotIndex`).
        """
        seek = getattr(self, "seek_cursor", None)
        if seek is None:
            return None
        native = seek(bound, role)
        if native is None:
            return None
        cursor, exact = native
        if not exact:
            return None
        block = getattr(cursor, "remaining_block", None)
        if block is None:
            return None
        return block()

    def bits_per_triple(self) -> float:
        """Average space per triple — the headline space metric of the paper."""
        if self.num_triples == 0:
            return 0.0
        return self.size_in_bits() / self.num_triples

    def space_breakdown(self) -> Dict[str, int]:
        """Per-component space in bits (overridden by concrete indexes)."""
        return {"total": self.size_in_bits()}

    # ------------------------------------------------------------------ #
    # Persistence.
    # ------------------------------------------------------------------ #

    def save(self, path, dictionary=None, planner_stats=None,
             aligned: bool = False) -> int:
        """Persist this index (plus an optional RDF dictionary) to ``path``.

        The file is a versioned, checksummed container readable by
        :func:`repro.storage.load_index` and the ``repro`` CLI.  Only the
        paper's index families are persistable; the educational baselines
        raise :class:`repro.errors.StorageError`.  ``planner_stats`` are the
        query planner's per-role cardinality histograms (see
        ``QueryPlanner.cardinalities_from_store``); bundling them lets a
        loaded index plan as well as a freshly built one.  ``aligned=True``
        writes the v3 container (64-byte aligned sections) so the file can
        later be opened with ``load_index(path, mmap=True)``.
        """
        from repro.storage import save_index
        return save_index(self, path, dictionary=dictionary,
                          planner_stats=planner_stats, aligned=aligned)

    @classmethod
    def load(cls, path) -> "TripleIndex":
        """Load the index stored in ``path`` (dictionary, if any, is dropped).

        Called on a concrete class (``TwoTrieIndex.load(path)``) it verifies
        the stored layout matches; called on :class:`TripleIndex` it accepts
        any layout.  Use :func:`repro.storage.load_index` to also recover the
        bundled dictionary.  A file carrying a dynamic-update delta is
        refused — returning the bare base would silently resurrect deleted
        triples and drop inserted ones; such files go through
        ``load_index(path).queryable()`` (or ``repro compact``) instead.
        """
        from repro.errors import StorageError
        from repro.storage import load_index
        loaded = load_index(path, load_dictionary=False)
        if loaded.delta is not None:
            raise StorageError(
                f"{path}: carries an uncompacted update delta; load it with "
                f"repro.storage.load_index(path).queryable() or fold it in "
                f"with 'repro compact' first")
        if not isinstance(loaded.index, cls):
            raise StorageError(f"{path}: holds a {type(loaded.index).__name__}, "
                               f"expected {cls.__name__}")
        return loaded.index

    def supported_kinds(self) -> Tuple[str, ...]:
        """Pattern kinds natively supported (all eight unless overridden)."""
        return ("spo", "sp?", "s??", "?po", "?p?", "??o", "s?o", "???")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{self.__class__.__name__}(triples={self.num_triples}, "
                f"bits_per_triple={self.bits_per_triple():.2f})")
