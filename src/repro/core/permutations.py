"""Permutations of the (S, P, O) components.

A permutation maps canonical ``(s, p, o)`` triples to the component order a
trie is built on.  The 3T index materialises SPO, POS and OSP; the 2T variants
keep SPO plus either POS (2Tp) or OPS (2To); the baselines use others (PSO for
vertical partitioning, all six for RDF-3X).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.patterns import TriplePattern
from repro.errors import IndexBuildError


@dataclass(frozen=True)
class Permutation:
    """A component order, e.g. POS = ``(1, 2, 0)`` (predicate, object, subject)."""

    name: str
    order: Tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.order) != [0, 1, 2]:
            raise IndexBuildError(f"invalid permutation order {self.order}")

    def apply(self, triple: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Permute a canonical ``(s, p, o)`` triple into this component order."""
        return (triple[self.order[0]], triple[self.order[1]], triple[self.order[2]])

    def invert(self, permuted: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Map a permuted triple back to canonical ``(s, p, o)`` order."""
        canonical = [0, 0, 0]
        for position, role in enumerate(self.order):
            canonical[role] = permuted[position]
        return tuple(canonical)

    def invert_columns(self, columns: Sequence[np.ndarray]
                       ) -> List[Tuple[int, int, int]]:
        """:meth:`invert` every permuted triple given as three columns."""
        return list(zip(*(columns[self.order.index(role)].tolist()
                          for role in (0, 1, 2))))

    def apply_pattern(self, pattern: TriplePattern
                      ) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        """Permute a pattern's components (wildcards stay wildcards)."""
        components = pattern.as_tuple()
        return (components[self.order[0]], components[self.order[1]],
                components[self.order[2]])

    @property
    def roles(self) -> Tuple[int, int, int]:
        """Alias of :attr:`order` for readability."""
        return self.order


#: All six permutations, keyed by lowercase name.
PERMUTATIONS: Dict[str, Permutation] = {
    "spo": Permutation("spo", (0, 1, 2)),
    "sop": Permutation("sop", (0, 2, 1)),
    "pso": Permutation("pso", (1, 0, 2)),
    "pos": Permutation("pos", (1, 2, 0)),
    "osp": Permutation("osp", (2, 0, 1)),
    "ops": Permutation("ops", (2, 1, 0)),
}


def permutation(name: str) -> Permutation:
    """Look up a permutation by name (case insensitive)."""
    try:
        return PERMUTATIONS[name.lower()]
    except KeyError:
        raise IndexBuildError(
            f"unknown permutation {name!r}; available: {sorted(PERMUTATIONS)}"
        ) from None
