"""Shared fixtures for the test suite.

Heavier artifacts (stores, indexes) are session-scoped so the cost of building
them is paid once; tests must therefore treat them as read-only.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import time
import urllib.parse

import pytest

from repro.core.builder import IndexBuilder
from repro.datasets.synthetic import generate_from_profile
from repro.datasets.watdiv import generate_watdiv
from repro.rdf.triples import TripleStore


def make_skewed_triples(count: int, num_subjects: int = 180, num_predicates: int = 12,
                        num_objects: int = 260, seed: int = 13) -> list:
    """Random triples with mild skew, deduplicated and sorted."""
    rng = random.Random(seed)
    triples = set()
    while len(triples) < count:
        subject = min(rng.randint(0, num_subjects - 1),
                      rng.randint(0, num_subjects - 1))
        predicate = min(rng.randint(0, num_predicates - 1),
                        rng.randint(0, num_predicates - 1))
        obj = min(rng.randint(0, num_objects - 1), rng.randint(0, num_objects - 1))
        triples.add((subject, predicate, obj))
    return sorted(triples)


@pytest.fixture(scope="session")
def small_store() -> TripleStore:
    """A small, skewed, deduplicated store with dense per-role ID spaces."""
    return TripleStore.from_triples(make_skewed_triples(2500), densify=True)


@pytest.fixture(scope="session")
def reference_triples(small_store) -> list:
    """The triples of :func:`small_store` as a sorted ground-truth list."""
    return sorted(small_store)


@pytest.fixture(scope="session")
def builder(small_store) -> IndexBuilder:
    """An :class:`IndexBuilder` over the small store."""
    return IndexBuilder(small_store)


@pytest.fixture(scope="session")
def index_3t(builder):
    """The 3T index over the small store."""
    return builder.build("3t")


@pytest.fixture(scope="session")
def index_cc(builder):
    """The CC index over the small store."""
    return builder.build("cc")


@pytest.fixture(scope="session")
def index_2tp(builder):
    """The 2Tp index over the small store."""
    return builder.build("2tp")


@pytest.fixture(scope="session")
def index_2to(builder):
    """The 2To index over the small store."""
    return builder.build("2to")


@pytest.fixture(scope="session")
def all_indexes(index_3t, index_cc, index_2tp, index_2to):
    """All four paper layouts keyed by name."""
    return {"3t": index_3t, "cc": index_cc, "2tp": index_2tp, "2to": index_2to}


@pytest.fixture(scope="session")
def dbpedia_like_store() -> TripleStore:
    """A scaled-down DBpedia-shaped dataset (used by statistics tests)."""
    return generate_from_profile("dbpedia", 15_000, seed=5)


@pytest.fixture(scope="session")
def watdiv_dataset():
    """A small WatDiv-like dataset with numeric literals for range queries."""
    return generate_watdiv(scale=120, seed=9)


def _assert_keepalive_fast(url: str) -> None:
    """Send 50 sequential ``POST /query`` lookups over one
    keep-alive connection and assert the median round trip is under 20 ms.

    20 ms is half the 40 ms minimum delayed ACK: a server whose response
    waits on Nagle's algorithm for the client's ACK cannot get under it.
    """
    address = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(address.hostname, address.port,
                                            timeout=10)
    body = json.dumps({"pattern": [0, None, None]})
    timings = []
    try:
        for _ in range(50):
            started = time.perf_counter()
            connection.request("POST", "/query", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
            timings.append(time.perf_counter() - started)
            assert response.status == 200, payload
    finally:
        connection.close()
    median_ms = statistics.median(timings) * 1000
    assert median_ms < 20, f"keep-alive median {median_ms:.1f} ms per request"


@pytest.fixture(scope="session")
def assert_keepalive_fast():
    """The keep-alive latency check shared by every deployment shape."""
    return _assert_keepalive_fast
