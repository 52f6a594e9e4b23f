"""Property-based cross-checks: every index layout and every baseline must
agree with the naive reference on arbitrary triple sets and patterns."""

from itertools import islice

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BitMatIndex,
    HdtFoqIndex,
    Rdf3xIndex,
    TripleBitIndex,
    VerticalPartitioningIndex,
)
from repro.core.builder import IndexBuilder, build_index
from repro.core.patterns import PatternKind, TriplePattern, reference_select
from repro.core.trie import TrieConfig
from repro.dynamic import DynamicIndex
from repro.rdf.triples import TripleStore

triple_sets = st.sets(
    st.tuples(st.integers(0, 15), st.integers(0, 4), st.integers(0, 15)),
    min_size=1, max_size=80)


def _check_pages(index, pattern):
    """``select_page`` is the ``islice`` of ``select`` at every offset."""
    matches = list(index.select(pattern))
    for offset in sorted({0, len(matches) // 2, len(matches),
                          len(matches) + 2}):
        for limit in (0, 1, None):
            stop = None if limit is None else offset + limit
            expected = list(islice(matches, offset, stop))
            has_more = limit is not None and len(matches) > offset + limit
            assert index.select_page(pattern, offset, limit) == (expected,
                                                                 has_more)


def _check_index_against_reference(index, triples):
    triples = sorted(triples)
    probes = triples[:: max(1, len(triples) // 8)]
    for triple in probes:
        for kind in PatternKind:
            pattern = TriplePattern.from_triple_with_wildcards(triple, kind)
            assert index.select_list(pattern) == reference_select(triples, pattern)
            _check_pages(index, pattern)
    # Also probe IDs that are absent.
    for absent in ((1000, None, None), (None, 1000, None), (None, None, 1000),
                   (None, None, 2**70)):
        assert index.select_list(absent) == []
        _check_pages(index, absent)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(triple_sets, st.sampled_from([None, "ef", "compact", "vbyte"]))
def test_paper_layouts_match_reference(triples, codec):
    """Property: the four paper layouts answer every pattern kind correctly,
    over prefix-summed (default PEF, EF) and raw (Compact, VByte) node
    levels, and so does the dynamic overlay over them with a live delta."""
    store = TripleStore.from_triples(sorted(triples))
    configs = None if codec is None else {
        name: TrieConfig(level1_nodes=codec, level2_nodes=codec)
        for name in ("spo", "pos", "osp", "ops")}
    deleted = sorted(triples)[::5]
    inserted = [(s, p, 16 + o) for s, p, o in sorted(triples)[1::7]]
    for layout in ("3t", "cc", "2tp", "2to"):
        index = IndexBuilder(store, configs).build(layout)
        assert index.num_triples == len(triples)
        _check_index_against_reference(index, triples)
        dynamic = DynamicIndex(index)
        dynamic.update(inserts=inserted, deletes=deleted)
        _check_index_against_reference(
            dynamic, (set(triples) | set(inserted)) - set(deleted))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(triple_sets,
       st.sampled_from([HdtFoqIndex, TripleBitIndex, VerticalPartitioningIndex,
                        Rdf3xIndex, BitMatIndex]))
def test_baselines_match_reference(triples, index_class):
    """Property: every baseline answers every pattern kind correctly."""
    store = TripleStore.from_triples(sorted(triples))
    index = index_class(store)
    assert index.num_triples == len(triples)
    _check_index_against_reference(index, triples)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(triple_sets)
def test_layouts_agree_with_each_other(triples):
    """Property: all four layouts return identical result sets."""
    store = TripleStore.from_triples(sorted(triples))
    indexes = [build_index(store, layout) for layout in ("3t", "cc", "2tp", "2to")]
    probe = sorted(triples)[0]
    for kind in PatternKind:
        pattern = TriplePattern.from_triple_with_wildcards(probe, kind)
        results = [index.select_list(pattern) for index in indexes]
        assert all(r == results[0] for r in results[1:])
