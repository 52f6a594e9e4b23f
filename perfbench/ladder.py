"""The traced run's per-layer ladder.

The served run (with ``"profile": true`` on SPARQL requests) gives the
HTTP and service numbers; then the same seeded ops are replayed in-process
one layer down at a time, each call timed here around the layer's public
function, so the program itself is not modified:

    QueryService.select/execute/update  ->  queries.stream_bgp
        ->  TripleIndex.select  ->  the index's own codec sequences

A layer's self time is its rung minus the rung below it (README.md).
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
import tracemalloc
from collections import deque
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from harness import percentile

#: Ops of each class replayed per in-process rung.
REPLAY_OPS = 400
#: Update batches replayed in-process (the mixed_rw writer's first ones).
REPLAY_UPDATES = 600
#: Codecs of the served 2Tp layout: EF pointers, PEF node levels, and the
#: compact vector of SPO's third level.
CODECS = ("ef", "pef", "compact")
#: Metric-name spelling of each pattern shape ("?" is not a name letter).
KIND_NAMES = {kind: kind.replace("?", "_") for kind in
              ("spo", "sp?", "s??", "???", "s?o", "?po", "?p?", "??o")}


def _timed(calls: Iterable, fn) -> List[float]:
    out = []
    for call in calls:
        started = time.perf_counter()
        fn(call)
        out.append(time.perf_counter() - started)
    return out


def _take(iterator, count: Optional[int] = None) -> None:
    """Consume the first ``count`` items (all of them for None)."""
    deque(islice(iterator, count), maxlen=0)


def _sequences(index) -> Dict[str, object]:
    """The largest sequence of each codec reachable from the index."""
    from repro.sequences.base import EncodedSequence
    found: Dict[str, object] = {}
    seen = set()
    stack = [index]
    while stack:
        node = stack.pop()
        if id(node) in seen or not type(node).__module__.startswith("repro"):
            continue
        seen.add(id(node))
        if isinstance(node, EncodedSequence):
            best = found.get(node.name)
            if best is None or len(node) > len(best):
                found[node.name] = node
        for value in getattr(node, "__dict__", {}).values():
            stack.append(value)
        for slot in getattr(type(node), "__slots__", ()):
            stack.append(getattr(node, slot, None))
    return found


def _codec_costs(sequence, rng: random.Random) -> Tuple[float, float]:
    """(ns per next_geq, ns per decoded value) at seeded positions.

    Probes search inside non-decreasing runs (all of a monotone sequence;
    a sibling range of a compact node level), as the trie cursors do.
    """
    values = sequence.decode_block(0, len(sequence))
    breaks = np.flatnonzero(np.diff(values) < 0) + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [len(values)]])
    wide = np.flatnonzero(ends - starts >= 2)
    probes = []
    for _ in range(2000):
        run = int(wide[rng.randrange(len(wide))]) if len(wide) else 0
        begin, end = int(starts[run]), int(ends[run])
        probes.append((int(values[rng.randrange(begin, end)]), begin, end))
    rounds = []
    for _ in range(5):
        started = time.perf_counter()
        for value, begin, end in probes:
            sequence.next_geq(value, begin, end)
        rounds.append((time.perf_counter() - started) / len(probes) * 1e9)
    block = min(1024, len(sequence))
    positions = [rng.randrange(0, len(sequence) - block + 1) for _ in range(200)]
    decode = []
    for _ in range(5):
        started = time.perf_counter()
        for begin in positions:
            sequence.decode_block(begin, begin + block)
        decode.append((time.perf_counter() - started)
                      / (len(positions) * block) * 1e9)
    return statistics.median(rounds), statistics.median(decode)


def _ops(run, rng: random.Random) -> Tuple[List[dict], List[dict], List[dict]]:
    """The lookup, query and update ops the in-process rungs replay: the
    served run's own, plus seeded ones of the classes it did not send."""
    wl = run.wl
    lookups = (run.readers[0] if run.workload == "lookup" else
               run.probe_lookups or wl.lookup_ops(run.columns, run.truth, rng,
                                                  REPLAY_OPS))
    queries = run.probe_queries or run.readers[0]
    updates = run.writes or run.probe_updates
    return (lookups[:REPLAY_OPS], queries[:REPLAY_OPS],
            updates[:REPLAY_UPDATES])


def per_layer(run, outcome: dict) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """The per-layer metrics, and each distinct query's full-answer time
    (printed only: their names differ per workload)."""
    from repro.queries.planner import QueryPlanner, stream_bgp
    from repro.queries.sparql import parse_sparql
    from repro.service import QueryService
    from repro.service.jsonio import query_result_to_json
    from repro.storage import file_info, load_index

    metrics: Dict[str, Tuple[float, str]] = {}
    rng = random.Random(f"{run.seed}/{run.workload}/ladder")
    lookups, queries, updates = _ops(run, rng)
    container = outcome["container"]
    setups = outcome["setups"]
    timed = outcome["load"]["records"]
    served = timed + outcome["probes"]
    compaction_ratio = run.spec.compact_ratio or None
    mmap = run.spec.mmap

    # -- service.http: what the client saw minus what the server measured,
    # over the timed phase's reads (the writer's latency starts at its due
    # time, so it is left out).
    reads = [r for r in timed if r.status == 200 and r.server_ms is not None
             and r.expect_count is None]
    transport = [r.latency_s * 1e3 - r.server_ms for r in reads]
    shares = [(r.latency_s * 1e3 - r.server_ms) / (r.latency_s * 1e3)
              for r in reads]
    metrics["service.http.transport_ms.p50"] = (percentile(transport, .5), "ms")
    metrics["service.http.transport_ms.p99"] = (percentile(transport, .99), "ms")
    metrics["service.http.share"] = (statistics.median(shares), "ratio")
    metrics["service.http.ready_s"] = (
        statistics.median(s["ready_s"] for s in setups), "s")

    # -- service: the served run's caches and profile trees ...
    stats = outcome["server_stats"]
    metrics["service.warmup_s"] = (
        statistics.median(s["warmup_s"] for s in setups), "s")
    metrics["service.result_cache.hit_rate"] = (
        stats["result_cache"]["hit_rate"], "ratio")
    metrics["service.result_cache.evictions"] = (
        stats["result_cache"]["evictions"], "count")
    metrics["service.plan_cache.hit_rate"] = (
        stats["plan_cache"]["hit_rate"], "ratio")
    stages: Dict[str, List[float]] = {"parse": [], "plan": [], "execute": []}
    counters = {"seeks": 0, "blocks_decoded": 0, "values": 0, "bindings": 0}
    profiled = 0
    for record in served:
        profile = record.body.get("profile") if record.status == 200 else None
        if not profile:
            continue
        profiled += 1
        for span in profile["root"].get("children", []):
            if span["name"] in stages:
                stages[span["name"]].append(span["elapsed_ms"])
            if span["name"] == "execute":
                for key in ("seeks", "blocks_decoded"):
                    counters[key] += span.get("counters", {}).get(key, 0)
                for level in span.get("children", []):
                    for key in ("values", "bindings"):
                        counters[key] += level.get("counters", {}).get(key, 0)
    for name, values in stages.items():
        metrics[f"service.stage.{name}_ms"] = (
            statistics.median(values) if values else 0.0, "ms")

    # ... and the same ops replayed on an in-process QueryService.
    loaded = load_index(container, mmap=mmap)
    service = QueryService(loaded.index, cardinalities=loaded.planner_stats,
                           result_cache_size=256)
    select_s = _timed(lookups, lambda op: service.select(
        op["pattern"], limit=op["limit"], offset=op.get("offset", 0)))
    results = []
    execute_s = _timed(queries, lambda op: results.append(service.execute(
        op["sparql"], limit=op["limit"], use_cache=op["cache"])))
    serialize_s = _timed(results, query_result_to_json)
    metrics["service.select_us.p50"] = (percentile(select_s, .5) * 1e6, "us")
    metrics["service.select_us.p99"] = (percentile(select_s, .99) * 1e6, "us")
    metrics["service.execute_ms.p50"] = (percentile(execute_s, .5) * 1e3, "ms")
    metrics["service.execute_ms.p99"] = (percentile(execute_s, .99) * 1e3, "ms")
    metrics["service.stage.serialize_ms"] = (
        statistics.median(serialize_s) * 1e3, "ms")

    # obs: profiling overhead, profile off/on interleaved per query.
    off, on = [], []
    for op in queries[:200]:
        for flag, sink in ((False, off), (True, on)):
            started = time.perf_counter()
            service.execute(op["sparql"], limit=op["limit"], use_cache=False,
                            profile=flag)
            sink.append(time.perf_counter() - started)
    metrics["obs.profile_overhead_pct"] = (
        (sum(on) - sum(off)) / sum(off) * 100, "%")

    # Writes through a writable service (WAL on) on a fresh copy.
    copy = run.work / "ladder.ridx"
    wal = run.work / "ladder.wal"
    shutil.copyfile(container, copy)
    writer = QueryService.from_file(copy, wal_path=wal,
                                    compaction_ratio=compaction_ratio)
    update_s = _timed(updates, lambda op: writer.update(
        inserts=[tuple(t) for t in op["insert"]],
        deletes=[tuple(t) for t in op["delete"]]))
    written = sum(len(op["insert"]) + len(op["delete"]) for op in updates)
    wal_bytes = wal.stat().st_size
    writer.close()
    metrics["service.update_ms.p50"] = (percentile(update_s, .5) * 1e3, "ms")
    metrics["service.update_ms.p99"] = (percentile(update_s, .99) * 1e3, "ms")

    # -- queries: the join engines, no service around them.
    planner = QueryPlanner(cardinalities=loaded.planner_stats)
    parsed = {op["sparql"]: parse_sparql(op["sparql"]) for op in queries}
    stream_s = _timed(queries, lambda op: _take(stream_bgp(
        loaded.index, parsed[op["sparql"]], planner=planner,
        limit=op["limit"], engine="auto"), op["limit"]))
    metrics["queries.stream_ms.p50"] = (percentile(stream_s, .5) * 1e3, "ms")
    metrics["queries.stream_ms.p99"] = (percentile(stream_s, .99) * 1e3, "ms")
    distinct = dict(list({op["sparql"]: op["name"] for op in queries}.items())
                    [:50])
    per_query: Dict[str, List[float]] = {}
    for engine in ("nested", "wcoj", "auto"):
        total = 0.0
        for text in distinct:
            started = time.perf_counter()
            _take(stream_bgp(loaded.index, parsed[text], planner=planner,
                             engine=engine))
            seconds = time.perf_counter() - started
            total += seconds
            if engine == "auto":
                per_query.setdefault(distinct[text], []).append(seconds * 1e3)
        metrics[f"queries.engine.{engine}_total_ms"] = (total * 1e3, "ms")
    for key, value in counters.items():
        metrics[f"queries.{key}"] = (value / max(1, profiled), "count/query")

    # -- core: TripleIndex.select, one page per pattern, by shape.
    by_kind: Dict[str, List[float]] = {kind: [] for kind in KIND_NAMES}
    pool = lookups + run.wl.lookup_ops(run.columns, run.truth, rng, 400)
    for op in pool:
        pattern = tuple(op["pattern"])
        kind = "".join("?" if t is None else "spo"[i]
                       for i, t in enumerate(pattern))
        count = op.get("offset", 0) + op["limit"] + 1
        started = time.perf_counter()
        _take(loaded.index.select(pattern), count)
        by_kind[kind].append(time.perf_counter() - started)
    for kind, name in KIND_NAMES.items():
        metrics[f"core.select_us.{name}"] = (
            statistics.median(by_kind[kind]) * 1e6, "us")
    metrics["core.bits_per_triple"] = (loaded.index.bits_per_triple(),
                                       "bits/triple")

    # Heap growth of a freshly loaded index under the replay: the lazily
    # decoded mirrors the in-memory bits/triple does not count.
    tracemalloc.start()
    try:
        fresh = load_index(container, mmap=mmap)
        heap_service = QueryService(fresh.index,
                                    cardinalities=fresh.planner_stats,
                                    result_cache_size=0)
        baseline = tracemalloc.get_traced_memory()[0]
        for op in lookups[:200]:
            heap_service.select(op["pattern"], limit=op["limit"],
                                offset=op.get("offset", 0))
        for op in queries[:100]:
            heap_service.execute(op["sparql"], limit=op["limit"],
                                 use_cache=False)
        growth = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    container_bytes = container.stat().st_size
    metrics["core.heap_growth_mb"] = (growth / 2**20, "MiB")
    metrics["core.heap_growth_ratio"] = (growth / container_bytes, "ratio")

    # -- sequences: the index's own codec sequences.
    found = _sequences(loaded.index)
    for codec in CODECS:
        next_geq_ns, decode_ns = _codec_costs(found[codec], rng)
        metrics[f"sequences.next_geq_ns.{codec}"] = (next_geq_ns, "ns")
        metrics[f"sequences.decode_block_ns_per_value.{codec}"] = (decode_ns,
                                                                    "ns")

    # -- dynamic: the overlay under the same batches, no WAL, no service.
    dynamic = load_index(container).queryable(
        writable=True, compaction_ratio=compaction_ratio)
    compaction_s: List[float] = []

    def apply(op):
        result = dynamic.update(inserts=[tuple(t) for t in op["insert"]],
                                deletes=[tuple(t) for t in op["delete"]])
        if result.compaction is not None:
            compaction_s.append(result.compaction.seconds)

    dynamic_s = _timed(updates, apply)
    delta_ratio = len(dynamic.delta) / dynamic.base.num_triples
    if not compaction_s:
        compaction_s.append(dynamic.compact().seconds)
    metrics["dynamic.update_us.p50"] = (percentile(dynamic_s, .5) * 1e6, "us")
    metrics["dynamic.update_us.p99"] = (percentile(dynamic_s, .99) * 1e6, "us")
    metrics["dynamic.compactions"] = (stats["updates"]["compactions"], "count")
    metrics["dynamic.compaction_s"] = (statistics.mean(compaction_s), "s")
    metrics["dynamic.delta_ratio"] = (delta_ratio, "ratio")

    # -- storage.
    metrics["storage.build_s"] = (
        statistics.median(s["build_s"] for s in setups), "s")
    for mode in ("eager", "mmap"):
        loads = _timed(range(3), lambda _: load_index(container,
                                                      mmap=mode == "mmap"))
        metrics[f"storage.load_s.{mode}"] = (statistics.median(loads), "s")
    sections = file_info(container)["section_bytes"]
    metrics["storage.section_bytes.index"] = (sections["index"], "bytes")
    metrics["storage.section_bytes.stats"] = (sections.get("stats", 0),
                                              "bytes")
    metrics["storage.wal_bytes_per_triple"] = (wal_bytes / written,
                                               "bytes/triple")

    return ({name: {"value": float(value), "unit": unit}
             for name, (value, unit) in metrics.items()},
            {name: statistics.median(times)
             for name, times in per_query.items()})
