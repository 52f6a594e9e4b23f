"""Range-aware views over encoded sequences.

Trie node levels are *not* globally monotone: only the sub-sequences of
sibling nodes are sorted.  The paper (Section 3.1) encodes them with the
Elias-Fano family anyway by adding to every node ID the prefix sum of the
previously coded sub-sequence, which makes the whole level monotone.  The
price is that the decoder must subtract the base of the enclosing sibling
range, which is always known to the ``select`` algorithm.

Two classes implement that contract:

* :class:`RangedSequence` — trivial pass-through for codecs that store the
  original values (Compact, VByte);
* :class:`PrefixSummedSequence` — stores the transformed monotone sequence in
  a monotone codec (EF / PEF) and undoes the transform on access.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EncodingError
from repro.sequences.base import NOT_FOUND, EncodedSequence


class RangedSequence:
    """A view over an :class:`EncodedSequence` addressed by sibling ranges.

    ``begin``/``end`` arguments always delimit one sibling range, i.e. a range
    whose boundaries coincide with the trie pointers used at construction
    time.
    """

    #: Number of scalar operations on a still-encoded level before the
    #: decoded mirror is built anyway: one-shot pattern lookups never pay
    #: for a full decode, while join workloads (thousands of seeks per
    #: level) converge to ``searchsorted`` after a negligible warm-up.
    ADAPTIVE_DECODE_THRESHOLD = 64

    def __init__(self, sequence: EncodedSequence):
        self._sequence = sequence
        # Lazily-decoded mirror of the whole stored sequence (the *stored*
        # domain, i.e. transformed values for PrefixSummedSequence).  It is
        # materialised by the first batch operation — or adaptively, once a
        # level has absorbed ``ADAPTIVE_DECODE_THRESHOLD`` scalar probes —
        # and turns every range operation into a numpy slice / searchsorted.
        # Like the bit-vector select directory it is derived acceleration
        # state: never persisted, not charged by ``size_in_bits``, and never
        # built at load time — so mmap-backed loads stay O(1) until a
        # consumer actually shows up.
        self._decoded: Optional[np.ndarray] = None
        self._scalar_ops = 0

    @property
    def sequence(self) -> EncodedSequence:
        """The underlying encoded sequence."""
        return self._sequence

    def __len__(self) -> int:
        return len(self._sequence)

    def _directory(self) -> np.ndarray:
        """Materialise (once) the decoded mirror of the stored sequence."""
        if self._decoded is None:
            self._decoded = self._sequence.decode_block(0, len(self._sequence))
        return self._decoded

    def access_in_range(self, begin: int, end: int, i: int) -> int:
        """Value at absolute position ``i`` inside the sibling range ``[begin, end)``."""
        decoded = self._decoded
        if decoded is None:
            # Adaptive warm-up: one-shot lookups stay on the codec's scalar
            # path; once a level has proven itself seek-heavy the mirror is
            # built and every subsequent probe is an array index.
            self._scalar_ops += 1
            if self._scalar_ops < self.ADAPTIVE_DECODE_THRESHOLD:
                return self._sequence.access(i)
            decoded = self._directory()
        return int(decoded[i])

    def find_in_range(self, begin: int, end: int, value: int) -> int:
        """Absolute position of ``value`` inside ``[begin, end)``, or -1."""
        decoded = self._decoded
        if decoded is None:
            self._scalar_ops += 1
            if self._scalar_ops < self.ADAPTIVE_DECODE_THRESHOLD:
                return self._sequence.find(begin, end, value)
            decoded = self._directory()
        window = decoded[begin:end]
        position = int(window.searchsorted(value))
        if position < end - begin and int(window[position]) == value:
            return begin + position
        return NOT_FOUND

    def next_geq_in_range(self, begin: int, end: int, value: int) -> Tuple[int, int]:
        """``(position, element)`` of the first element >= ``value`` in the
        sibling range ``[begin, end)``; ``(end, -1)`` when none qualifies.

        This is the seek primitive of the worst-case-optimal join cursors; it
        delegates to the codec's ``next_geq`` (Elias-Fano ``select0``, PEF
        partition pruning, or a plain binary search), or to a ``searchsorted``
        on the decoded mirror once a batch operation has materialised it.
        """
        decoded = self._decoded
        if decoded is None:
            self._scalar_ops += 1
            if self._scalar_ops < self.ADAPTIVE_DECODE_THRESHOLD:
                return self._sequence.next_geq(value, begin, end)
            decoded = self._directory()
        window = decoded[begin:end]
        position = int(window.searchsorted(value))
        if position < end - begin:
            return begin + position, int(window[position])
        return end, -1

    def scan_range(self, begin: int, end: int) -> Iterator[int]:
        """Decode the sibling range ``[begin, end)``."""
        return self._sequence.scan(begin, end)

    def decode_block_in_range(self, begin: int, end: int,
                              start: Optional[int] = None) -> np.ndarray:
        """Vectorised decode of ``[start or begin, end)`` within the sibling
        range ``[begin, end)``.

        Equal to ``np.fromiter(scan_range(start, end), np.int64)`` but runs
        on the decoded-mirror directory (materialised on first use) — this is
        what the block cursors and the ``select_values`` fast path ride on.
        ``begin`` must still be the range boundary because the prefix-sum
        transform derives its base from it.
        """
        return self._directory()[(begin if start is None else start):end]

    def values_at(self, positions: np.ndarray,
                  range_begins: np.ndarray) -> np.ndarray:
        """Batch :meth:`access_in_range`: the values at absolute
        ``positions``, each inside the sibling range that starts at the
        matching entry of ``range_begins``, in one gather on the mirror."""
        return self._directory()[positions]

    def find_in_ranges(self, begins: np.ndarray, ends: np.ndarray,
                       value: int) -> np.ndarray:
        """Batch :meth:`find_in_range`: the absolute position of ``value``
        in every sibling range ``[begins[k], ends[k])``, or -1 where absent.

        Stored values are not monotone across ranges here, so each range
        is searched on its own.
        """
        return np.fromiter(
            (self.find_in_range(begin, end, value)
             for begin, end in zip(begins.tolist(), ends.tolist())),
            dtype=np.int64, count=len(begins))

    def size_in_bits(self) -> int:
        """Space of the underlying representation."""
        return self._sequence.size_in_bits()

    def bits_per_element(self) -> float:
        """Average bits per element of the underlying representation."""
        return self._sequence.bits_per_element()

    def to_list_by_ranges(self, boundaries: Sequence[int]) -> List[int]:
        """Decode the whole level given its range ``boundaries`` (pointers)."""
        values: List[int] = []
        for k in range(len(boundaries) - 1):
            values.extend(self.scan_range(int(boundaries[k]), int(boundaries[k + 1])))
        return values


class PrefixSummedSequence(RangedSequence):
    """Monotone-codec view of a non-monotone level via the prefix-sum transform.

    Given the level values ``v`` and the sibling-range boundaries, the stored
    sequence is ``t[i] = v[i] + base(range of i)`` where ``base`` of a range is
    the transformed value of the last element of the previous range.  ``t`` is
    globally non-decreasing, hence encodable with EF / PEF.
    """

    def __init__(self, sequence: EncodedSequence):
        super().__init__(sequence)

    @classmethod
    def from_values(cls, values: Sequence[int], boundaries: Sequence[int],
                    codec, **codec_kwargs) -> "PrefixSummedSequence":
        """Build by transforming ``values`` (sibling ranges given by ``boundaries``).

        ``codec`` is a monotone-capable codec class exposing ``from_values``.
        ``boundaries`` is the pointer sequence: ``len(boundaries) == num_ranges + 1``
        and ``boundaries[-1] == len(values)``.
        """
        array = np.asarray(values, dtype=np.int64)
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.size == 0 or int(bounds[-1]) != array.size:
            raise EncodingError("boundaries must cover the whole value sequence")
        transformed = np.empty_like(array)
        base = 0
        for k in range(bounds.size - 1):
            begin, end = int(bounds[k]), int(bounds[k + 1])
            if end < begin:
                raise EncodingError("boundaries must be non-decreasing")
            if end == begin:
                continue
            chunk = array[begin:end]
            if np.any(np.diff(chunk) < 0):
                raise EncodingError("each sibling range must be sorted")
            transformed[begin:end] = chunk + base
            base = int(transformed[end - 1])
        encoded = codec.from_values(transformed.tolist(), **codec_kwargs)
        return cls(encoded)

    def _base(self, begin: int) -> int:
        if begin == 0:
            return 0
        if self._decoded is not None:
            return int(self._decoded[begin - 1])
        return self._sequence.access(begin - 1)

    def access_in_range(self, begin: int, end: int, i: int) -> int:
        if not begin <= i < end:
            raise IndexError(f"position {i} outside sibling range [{begin}, {end})")
        decoded = self._decoded
        if decoded is not None:
            # Flattened hot path: one array read for the value, one for the
            # base (the join cursors call this once per step).
            if begin == 0:
                return int(decoded[i])
            return int(decoded[i]) - int(decoded[begin - 1])
        return super().access_in_range(begin, end, i) - self._base(begin)

    def find_in_range(self, begin: int, end: int, value: int) -> int:
        if begin == end:
            return NOT_FOUND
        decoded = self._decoded
        if decoded is not None:
            target = value if begin == 0 else value + int(decoded[begin - 1])
            window = decoded[begin:end]
            position = window.searchsorted(target)
            if position < end - begin and window[position] == target:
                return begin + int(position)
            return NOT_FOUND
        return super().find_in_range(begin, end, value + self._base(begin))

    def next_geq_in_range(self, begin: int, end: int, value: int) -> Tuple[int, int]:
        if begin == end:
            return end, -1
        decoded = self._decoded
        if decoded is not None:
            base = 0 if begin == 0 else int(decoded[begin - 1])
            window = decoded[begin:end]
            position = window.searchsorted(value + base)
            if position < end - begin:
                return begin + int(position), int(window[position]) - base
            return end, -1
        base = self._base(begin)
        position, element = super().next_geq_in_range(begin, end, value + base)
        if position == end:
            return end, -1
        return position, element - base

    def scan_range(self, begin: int, end: int) -> Iterator[int]:
        base = self._base(begin) if end > begin else 0
        for transformed in self._sequence.scan(begin, end):
            yield transformed - base

    def decode_block_in_range(self, begin: int, end: int,
                              start: Optional[int] = None) -> np.ndarray:
        if start is None:
            start = begin
        if end <= start:
            return np.zeros(0, dtype=np.int64)
        return self._directory()[start:end] - self._base(begin)

    def _bases(self, range_begins: np.ndarray) -> np.ndarray:
        """Prefix-sum base of every sibling range starting at ``range_begins``."""
        bases = self._directory()[range_begins - 1]
        if not range_begins.all():
            bases[range_begins == 0] = 0
        return bases

    def values_at(self, positions: np.ndarray,
                  range_begins: np.ndarray) -> np.ndarray:
        values = self._directory()[positions]
        values -= self._bases(range_begins)
        return values

    def find_in_ranges(self, begins: np.ndarray, ends: np.ndarray,
                       value: int) -> np.ndarray:
        """One ``searchsorted`` over the whole monotone level: range ``k``
        looks for ``value + base_k``.

        A ``value`` above the level's last stored element is absent from
        every range; ranges whose base would push the target past that
        element are skipped before adding, so no sum leaves ``int64``.
        """
        found = np.full(len(begins), NOT_FOUND, dtype=np.int64)
        decoded = self._directory()
        if decoded.size == 0 or not 0 <= value <= int(decoded[-1]):
            return found
        bases = self._bases(begins)
        candidates = np.flatnonzero(bases <= int(decoded[-1]) - value)
        targets = bases[candidates] + value
        positions = np.maximum(np.searchsorted(decoded, targets),
                               begins[candidates])
        inside = positions < ends[candidates]
        hits = np.zeros(candidates.size, dtype=bool)
        hits[inside] = decoded[positions[inside]] == targets[inside]
        found[candidates[hits]] = positions[hits]
        return found
