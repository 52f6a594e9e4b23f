"""Seeded datasets, op streams and ground truth for the three workloads.

Everything here is deterministic: the dataset comes from ``repro.datasets``
with a fixed generator seed, and the op streams from this module's own
``random.Random`` seeded by the run's seed, never from
``repro.queries.workload``.  The ground
truth is computed independently of the served index: numpy over the
generated columns for triple patterns, and a numpy equi-join of the
columns' pattern matches for SPARQL BGPs.

An op is a plain dict, also the request body it is sent as:

* lookup — ``{"pattern": [s, p, o], "limit": n, "offset": k}``;
* query  — ``{"sparql": text, "limit": n, "cache": bool}`` plus ``name``;
* update — ``{"insert": [...], "delete": [...]}``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Page size of every paged request (patterns and SPARQL alike).
PAGE = 50
#: Deepest page a lookup asks for; ``QueryService.select`` skips the offset
#: by iteration, so this bounds the per-request skip cost.
MAX_PAGE = 8
#: The 2Tp layout answers each pattern kind from one trie; these are the
#: component orders its answers come out in (S?O enumerates SPO with S and
#: O fixed, ??O probes every predicate's POS range for the object).
KIND_ORDER = {
    "spo": (0, 1, 2), "sp?": (0, 1, 2), "s??": (0, 1, 2), "???": (0, 1, 2),
    "s?o": (0, 2, 1), "?po": (1, 2, 0), "?p?": (1, 2, 0), "??o": (2, 1, 0),
}
KINDS = tuple(KIND_ORDER)
#: Shapes a one-pattern SPARQL query can take: at least one variable to
#: project, and no whole-index scan.
QUERY_KINDS = tuple(k for k in KINDS if "?" in k and k != "???")


@dataclass(frozen=True)
class WorkloadSpec:
    """How one workload is served and driven."""

    #: Closed-loop reader threads (one connection each).
    readers: int
    #: Whether readers hold one keep-alive connection (else one per request).
    keep_alive: bool
    #: Serve the container memory-mapped (else loaded eagerly).
    mmap: bool = False
    #: Update batches the open-loop writer sends per second (0 = no writer).
    write_rate: float = 0.0
    #: ``repro serve --compact-ratio`` of a writable server.
    compact_ratio: float = 0.0

    def serve_flags(self) -> List[str]:
        """``repro serve`` flags of the measured server (WAL path aside)."""
        flags = ["--mmap"] if self.mmap else []
        return flags + ["--compact-ratio", str(self.compact_ratio)]


SPECS: Dict[str, WorkloadSpec] = {
    "lookup": WorkloadSpec(readers=2, keep_alive=True, mmap=True),
    "join": WorkloadSpec(readers=2, keep_alive=False),
    # 45 batches/s is about half the write capacity between compactions;
    # the ratio makes the fixed batch count of a run trip two compactions.
    "mixed_rw": WorkloadSpec(readers=1, keep_alive=False, write_rate=45.0,
                             compact_ratio=0.01),
}


#: Generator seed of every workload's dataset.  The dataset does not change
#: with the run's seed, only the op streams do: a WatDiv dataset drawn per
#: seed moved the heavy queries' cost, and with it ``mixed_rw``'s
#: ``query_p99_ms``, by 30% from seed to seed.
DATASET_SEED = 0


def generate_store(workload: str):
    """The workload's dataset as a ``TripleStore`` (ID triples)."""
    from repro.datasets import (generate_from_profile, generate_lubm,
                                generate_watdiv)
    if workload == "lookup":
        return generate_from_profile("dbpedia", 200_000, seed=DATASET_SEED)
    if workload == "join":
        return generate_lubm(16, seed=DATASET_SEED)
    return generate_watdiv(3000, seed=DATASET_SEED).store


def query_log(workload: str):
    """The SPARQL log a workload sends (empty for ``lookup``)."""
    from repro.queries.logs import lubm_query_log, watdiv_query_log
    if workload == "join":
        return lubm_query_log()
    if workload == "mixed_rw":
        return watdiv_query_log()
    return []


def sparql_text(query) -> str:
    """Render a parsed log query back to SPARQL with integer constants."""
    body = " . ".join(" ".join(str(term) for term in template.terms())
                      for template in query.bgp)
    return f"SELECT {' '.join(query.projection)} WHERE {{ {body} }}"


def fingerprint(value) -> str:
    """A short stable hash of JSON-able data (or of a numpy array)."""
    digest = hashlib.sha256()
    if isinstance(value, np.ndarray):
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(json.dumps(value, sort_keys=True).encode())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Op streams.
# --------------------------------------------------------------------------- #

def lookup_ops(columns: np.ndarray, truth: "PatternTruth", rng: random.Random,
               count: int) -> List[dict]:
    """Paged patterns over all 8 shapes, masked from uniformly sampled
    triples, each asking for a seeded page that exists."""
    ops = []
    for _ in range(count):
        row = columns[rng.randrange(len(columns))]
        kind = KINDS[rng.randrange(len(KINDS))]
        pattern = [int(row[i]) if kind[i] != "?" else None for i in range(3)]
        total = truth.count(pattern)
        pages = min(MAX_PAGE, (total + PAGE - 1) // PAGE)
        ops.append({"pattern": pattern, "limit": PAGE,
                    "offset": PAGE * rng.randrange(pages)})
    return ops


def query_ops(workload: str, rng: random.Random, count: int,
              columns: Optional[np.ndarray] = None) -> List[dict]:
    """SPARQL requests in seeded order.

    ``join``/``mixed_rw`` draw from their log (cache off for ``join`` so
    every request runs the join engines, on for ``mixed_rw`` so epoch
    invalidation shows).  ``lookup`` has no log: its queries are
    one-pattern BGPs masked from sampled triples, as a SPARQL client of a
    lookup service would send them.
    """
    log = query_log(workload)
    ops = []
    for _ in range(count):
        if log:
            query = log[rng.randrange(len(log))]
            ops.append({"name": query.name, "sparql": sparql_text(query),
                        "limit": PAGE, "cache": workload != "join"})
            continue
        row = columns[rng.randrange(len(columns))]
        kind = QUERY_KINDS[rng.randrange(len(QUERY_KINDS))]
        terms = [str(int(row[i])) if kind[i] != "?" else var
                 for i, var in enumerate(("?s", "?p", "?o"))]
        projection = " ".join(t for t in terms if t.startswith("?"))
        ops.append({"name": kind,
                    "sparql": f"SELECT {projection} WHERE {{ {' '.join(terms)} }}",
                    "limit": PAGE, "cache": True})
    return ops


def update_ops(columns: np.ndarray, rng: random.Random, count: int,
               per_batch: int, delete_lag: int) -> List[dict]:
    """Result-neutral insert/delete batches.

    Every inserted triple has a fresh subject and a fresh object (IDs above
    the dataset's) and one of the dataset's predicates.  Such a triple sits
    inside the predicate ranges the queries scan, so the overlay's merged
    cursors and tombstones are exercised, yet it joins with nothing: every
    log query is a connected BGP of at least two patterns.  Query answers
    therefore stay equal to the ground truth of the generated dataset while
    writes go on.  Each batch also deletes the triples inserted
    ``delete_lag`` batches earlier (tombstones once a compaction has folded
    them into the base).
    """
    fresh = int(columns.max()) + 1
    predicates = np.unique(columns[:, 1]).tolist()
    batches: List[dict] = []
    for number in range(count):
        inserts = []
        for _ in range(per_batch):
            inserts.append([fresh, predicates[rng.randrange(len(predicates))],
                            fresh + 1])
            fresh += 2
        deletes = (batches[number - delete_lag]["insert"][:per_batch // 2]
                   if number >= delete_lag else [])
        batches.append({"insert": inserts, "delete": [list(t) for t in deletes]})
    return batches


# --------------------------------------------------------------------------- #
# Ground truth.
# --------------------------------------------------------------------------- #

class PatternTruth:
    """Answers paged triple patterns from the generated columns.

    One sorted copy of the columns per answer order; a pattern's matches
    are a contiguous range of the copy sorted with its bound components
    first, found by ``searchsorted`` on a packed 64-bit key.
    """

    def __init__(self, columns: np.ndarray):
        self._bits = max(1, int(columns.max()).bit_length())
        if 3 * self._bits > 63:
            raise ValueError("IDs too large to pack three into 64 bits")
        self._sorted: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for order in set(KIND_ORDER.values()):
            permuted = columns[:, order]
            keys = self._pack(permuted)
            rank = np.argsort(keys, kind="stable")
            self._sorted[order] = (keys[rank], columns[rank])

    def _pack(self, permuted: np.ndarray) -> np.ndarray:
        keys = permuted[:, 0].astype(np.int64)
        for i in (1, 2):
            keys = (keys << self._bits) | permuted[:, i].astype(np.int64)
        return keys

    def _range(self, pattern: Sequence[Optional[int]]):
        kind = "".join("?" if term is None else "spo"[i]
                       for i, term in enumerate(pattern))
        order = KIND_ORDER[kind]
        keys, rows = self._sorted[order]
        bound = [pattern[i] for i in order if pattern[i] is not None]
        low = np.zeros((1, 3), np.int64)
        high = np.full((1, 3), (1 << self._bits) - 1, np.int64)
        low[0, :len(bound)] = bound
        high[0, :len(bound)] = bound
        start = int(np.searchsorted(keys, self._pack(low)[0], "left"))
        stop = int(np.searchsorted(keys, self._pack(high)[0], "right"))
        return rows, start, stop

    def count(self, pattern) -> int:
        _, start, stop = self._range(pattern)
        return stop - start

    def page(self, pattern, offset: int, limit: int
             ) -> Tuple[List[List[int]], bool]:
        """The exact page the server must return, and its ``has_more``."""
        rows, start, stop = self._range(pattern)
        first = min(start + offset, stop)
        last = min(first + limit, stop)
        return rows[first:last].tolist(), stop - first > limit


def _join(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]
          ) -> Dict[str, np.ndarray]:
    """Natural equi-join of two binding tables (dicts of equal-length arrays)."""
    shared = [v for v in left if v in right]
    left_n = len(next(iter(left.values())))
    right_n = len(next(iter(right.values())))
    if not shared:
        li = np.repeat(np.arange(left_n), right_n)
        ri = np.tile(np.arange(right_n), left_n)
    else:
        lcode = np.zeros(left_n, np.int64)
        rcode = np.zeros(right_n, np.int64)
        for v in shared:  # IDs fit in 21 bits, so three pack into an int64
            lcode = (lcode << 21) | left[v]
            rcode = (rcode << 21) | right[v]
        rorder = np.argsort(rcode, kind="stable")
        rsorted = rcode[rorder]
        lo = np.searchsorted(rsorted, lcode, "left")
        hi = np.searchsorted(rsorted, lcode, "right")
        counts = hi - lo
        li = np.repeat(np.arange(left_n), counts)
        starts = np.repeat(lo, counts)
        within = np.arange(len(li)) - np.repeat(np.cumsum(counts) - counts, counts)
        ri = rorder[starts + within]
    joined = {v: a[li] for v, a in left.items()}
    joined.update({v: a[ri] for v, a in right.items() if v not in joined})
    return joined


class QueryTruth:
    """Full answers of each log query over the generated dataset.

    Each template's matches are a mask over the generated columns; the
    templates are joined with numpy, independently of both join engines.
    """

    def __init__(self, columns: np.ndarray, log):
        self.answers: Dict[str, tuple] = {}
        for query in log:
            table = None
            pending = list(query.bgp)
            while pending:
                # Next template shares a variable with the table so far (the
                # log's BGPs are connected), so no Cartesian intermediate.
                template = next(
                    (t for t in pending if table is None
                     or any(v in table for v in t.variables())), pending[0])
                pending.remove(template)
                terms = template.terms()
                keep = np.ones(len(columns), bool)
                for role, term in enumerate(terms):
                    if not isinstance(term, str):
                        keep &= columns[:, role] == int(term)
                matches = columns[keep]
                part: Dict[str, np.ndarray] = {}
                keep = np.ones(len(matches), bool)
                for role, term in enumerate(terms):
                    if isinstance(term, str):
                        if term in part:  # repeated variable in one pattern
                            keep &= part[term] == matches[:, role]
                        else:
                            part[term] = matches[:, role]
                part = {v: a[keep] for v, a in part.items()}
                table = part if table is None else _join(table, part)
            projected = np.stack([table[v] for v in query.projection], axis=1)
            self.answers[query.name] = (
                query.projection, len(projected),
                set(map(tuple, projected.tolist())))

    def check(self, name: str, limit: int, body: dict) -> Optional[str]:
        """None if ``body`` is a correct page of query ``name``."""
        projection, total, rows = self.answers[name]
        names = [v.lstrip("?") for v in projection]
        got = [tuple(b.get(v) for v in names) for b in body.get("bindings", [])]
        if len(got) != min(total, limit):
            return f"{name}: {len(got)} bindings, expected {min(total, limit)}"
        if bool(body.get("has_more")) != (total > limit):
            return f"{name}: has_more {body.get('has_more')} with {total} solutions"
        wrong = [row for row in got if row not in rows]
        if wrong:
            return f"{name}: {len(wrong)} bindings not in the answer, e.g. {wrong[0]}"
        return None
