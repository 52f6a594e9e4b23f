"""Fork-shared serving metrics with Prometheus text exposition.

The pre-fork pool (:mod:`repro.service.pool`) needs one ``GET /metrics``
that aggregates over every worker process without any IPC on the hot
path.  The classic trick: the master allocates one anonymous *shared*
memory map before forking (``mmap.mmap(-1, ...)`` is
``MAP_SHARED | MAP_ANONYMOUS``), carves it into fixed-size slots of
``uint64`` counters — one slot per worker plus one for the master — and
every process writes only its own slot.  Increments are plain
read-modify-write: safe because each slot has exactly one writing
process (threads within a worker serialise on a per-process lock), and
8-byte aligned loads/stores are atomic on every platform we run on, so a
scraper reading another slot sees a torn-free (if slightly stale) value.

The same machinery serves the single-process ``repro serve`` with one
worker slot — the /metrics endpoint behaves identically with and without
``--workers``.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
from typing import Dict, List, Optional, Tuple

#: Upper bucket bounds (seconds) of the request-latency histogram; the
#: implicit ``+Inf`` bucket is the total observation count.
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0)

#: Per-stage histograms exported next to the request-latency one: query
#: planning, engine execution, and JSON serialisation, all sharing
#: :data:`LATENCY_BUCKETS`.  Each stage owns a ``<stage>_count`` /
#: ``<stage>_sum_us`` / ``<stage>_le_<i>`` run of slot fields.
STAGES = ("plan", "execute", "serialize")


def _histogram_fields(prefix: str) -> Tuple[str, ...]:
    return (f"{prefix}_count", f"{prefix}_sum_us") + tuple(
        f"{prefix}_le_{i}" for i in range(len(LATENCY_BUCKETS)))


#: Per-slot counter fields, in storage order.  ``*_sum_us`` fields keep
#: microseconds so the slots stay integer-only.  ``SLOT_BYTES`` is derived
#: from this tuple, so extending it resizes the shared block everywhere.
FIELDS = (
    "requests",       # responses sent, any status
    "errors",         # 5xx responses (excluding overload shedding)
    "client_errors",  # 4xx responses (excluding 408/429)
    "timeouts",       # 408 responses
    "overload",       # 503 admission-control rejections
    "ratelimited",    # 429 token-bucket rejections
    "inflight",       # gauge: requests currently executing
    "updates",        # triples accepted through /update on this slot
    "refreshes",      # epoch-document refreshes that changed the view
    "restarts",       # master slot only: children respawned after a crash
    "workers",        # master slot only: gauge of live worker processes
    "profile_requests",  # queries that asked for profile=true
    "slow_queries",      # queries recorded in the slow-query log
    "nested_seeks",      # cursor seeks by the nested-loop engine
    "wcoj_seeks",        # cursor seeks by the leapfrog engine
    "nested_blocks",     # blocks decoded by the nested-loop engine
    "wcoj_blocks",       # blocks decoded by the leapfrog engine
) + _histogram_fields("latency") + tuple(
    field for stage in STAGES for field in _histogram_fields(stage))

_FIELD_INDEX = {name: i for i, name in enumerate(FIELDS)}
_WORD = struct.Struct("<Q")
SLOT_BYTES = len(FIELDS) * _WORD.size


class SlotMetrics:
    """One process's window onto its own slot of the shared block.

    All mutators take the slot's process-local lock: a slot has one
    writing *process* but possibly many writing *threads* (the HTTP
    server is threaded inside each worker).
    """

    def __init__(self, block: "MetricsBlock", slot: int):
        self._block = block
        self._base = slot * SLOT_BYTES
        self._lock = threading.Lock()

    def _read(self, field: str) -> int:
        offset = self._base + _FIELD_INDEX[field] * _WORD.size
        return _WORD.unpack_from(self._block.buffer, offset)[0]

    def _write(self, field: str, value: int) -> None:
        offset = self._base + _FIELD_INDEX[field] * _WORD.size
        _WORD.pack_into(self._block.buffer, offset, value & 0xFFFFFFFFFFFFFFFF)

    def add(self, field: str, amount: int = 1) -> None:
        with self._lock:
            self._write(field, self._read(field) + amount)

    def sub(self, field: str, amount: int = 1) -> None:
        with self._lock:
            self._write(field, max(0, self._read(field) - amount))

    def set(self, field: str, value: int) -> None:
        with self._lock:
            self._write(field, value)

    def get(self, field: str) -> int:
        return self._read(field)

    def _observe(self, prefix: str, seconds: float) -> None:
        with self._lock:
            self._write(f"{prefix}_count", self._read(f"{prefix}_count") + 1)
            self._write(f"{prefix}_sum_us",
                        self._read(f"{prefix}_sum_us") + int(seconds * 1e6))
            for i, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    field = f"{prefix}_le_{i}"
                    self._write(field, self._read(field) + 1)
                    break

    def observe_latency(self, seconds: float) -> None:
        """Record one served request's wall-clock latency."""
        self._observe("latency", seconds)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one request's time in ``plan``/``execute``/``serialize``."""
        if stage in STAGES:
            self._observe(stage, seconds)


class MetricsBlock:
    """The shared counter block: slot 0 is the master, slots 1..N workers."""

    def __init__(self, num_workers: int):
        self.num_workers = max(1, int(num_workers))
        self._size = (self.num_workers + 1) * SLOT_BYTES
        #: Anonymous shared mapping: created before fork, inherited by every
        #: child, visible to all of them.
        self.buffer = mmap.mmap(-1, self._size)

    def master(self) -> SlotMetrics:
        return SlotMetrics(self, 0)

    def worker(self, index: int) -> SlotMetrics:
        if not 0 <= index < self.num_workers:
            raise IndexError(f"worker slot {index} out of range "
                             f"(pool of {self.num_workers})")
        return SlotMetrics(self, index + 1)

    def totals(self) -> Dict[str, int]:
        """Each field summed across the worker slots (master excluded)."""
        sums = dict.fromkeys(FIELDS, 0)
        for slot in range(1, self.num_workers + 1):
            view = SlotMetrics(self, slot)
            for field in FIELDS:
                sums[field] += view.get(field)
        return sums

    def close(self) -> None:
        try:
            self.buffer.close()
        except (BufferError, ValueError):  # pragma: no cover - exported views
            pass


def _line(out: List[str], name: str, value, labels: str = "") -> None:
    out.append(f"{name}{labels} {value}")


def _histogram(out: List[str], totals: Dict[str, int], prefix: str,
               name: str, help_text: str) -> None:
    """Emit one histogram family from a slot-field run (cumulative buckets,
    as the exposition format requires)."""
    out.append(f"# HELP {name} {help_text}")
    out.append(f"# TYPE {name} histogram")
    cumulative = 0
    for i, bound in enumerate(LATENCY_BUCKETS):
        cumulative += totals[f"{prefix}_le_{i}"]
        _line(out, f"{name}_bucket", cumulative, f'{{le="{bound}"}}')
    _line(out, f"{name}_bucket", totals[f"{prefix}_count"], '{le="+Inf"}')
    _line(out, f"{name}_sum", totals[f"{prefix}_sum_us"] / 1e6)
    _line(out, f"{name}_count", totals[f"{prefix}_count"])


def render_prometheus(block: Optional[MetricsBlock],
                      gauges: Optional[Dict[str, float]] = None) -> str:
    """The ``GET /metrics`` body, Prometheus text exposition format 0.0.4.

    ``gauges`` carries point-in-time values the counter block cannot
    (index epoch, triple count, cache sizes): plain ``repro_<name>``
    gauges.  Histogram buckets are emitted cumulatively, as the format
    requires, from the per-bucket counts the slots store.
    """
    out: List[str] = []
    if block is not None:
        totals = block.totals()
        master = block.master()
        counters: Tuple[Tuple[str, str, str], ...] = (
            ("requests", "repro_http_requests_total",
             "HTTP responses sent, any status."),
            ("errors", "repro_http_errors_total",
             "HTTP 5xx responses (excluding overload shedding)."),
            ("client_errors", "repro_http_client_errors_total",
             "HTTP 4xx responses (excluding 408/429)."),
            ("timeouts", "repro_request_timeouts_total",
             "Requests that hit their deadline (HTTP 408)."),
            ("overload", "repro_overload_rejections_total",
             "Requests shed by admission control (HTTP 503)."),
            ("ratelimited", "repro_ratelimited_total",
             "Requests shed by the per-client token bucket (HTTP 429)."),
            ("updates", "repro_update_triples_total",
             "Triples accepted through /update."),
            ("refreshes", "repro_epoch_refreshes_total",
             "Epoch refreshes that changed the served view."),
            ("profile_requests", "repro_profile_requests_total",
             "Queries that asked for profile=true."),
            ("slow_queries", "repro_slow_queries_total",
             "Queries recorded in the slow-query log."),
        )
        for field, name, help_text in counters:
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} counter")
            _line(out, name, totals[field])
        out.append("# HELP repro_engine_seeks_total Trie cursor seeks, "
                   "per executor.")
        out.append("# TYPE repro_engine_seeks_total counter")
        _line(out, "repro_engine_seeks_total", totals["nested_seeks"],
              '{engine="nested"}')
        _line(out, "repro_engine_seeks_total", totals["wcoj_seeks"],
              '{engine="wcoj"}')
        out.append("# HELP repro_engine_blocks_total Postings blocks "
                   "decoded, per executor.")
        out.append("# TYPE repro_engine_blocks_total counter")
        _line(out, "repro_engine_blocks_total", totals["nested_blocks"],
              '{engine="nested"}')
        _line(out, "repro_engine_blocks_total", totals["wcoj_blocks"],
              '{engine="wcoj"}')
        out.append("# HELP repro_inflight_requests Requests currently "
                   "executing, summed over workers.")
        out.append("# TYPE repro_inflight_requests gauge")
        _line(out, "repro_inflight_requests", totals["inflight"])
        out.append("# HELP repro_worker_restarts_total Worker processes "
                   "respawned after a crash.")
        out.append("# TYPE repro_worker_restarts_total counter")
        _line(out, "repro_worker_restarts_total", master.get("restarts"))
        out.append("# HELP repro_workers Live worker processes.")
        out.append("# TYPE repro_workers gauge")
        _line(out, "repro_workers", master.get("workers"))
        _histogram(out, totals, "latency", "repro_request_seconds",
                   "Request latency.")
        _histogram(out, totals, "plan", "repro_plan_seconds",
                   "Query planning time (parse + plan selection).")
        _histogram(out, totals, "execute", "repro_execute_seconds",
                   "Engine execution time.")
        _histogram(out, totals, "serialize", "repro_serialize_seconds",
                   "Response serialisation time.")
    for name, value in sorted((gauges or {}).items()):
        metric = f"repro_{name}"
        out.append(f"# TYPE {metric} gauge")
        _line(out, metric, value)
    return "\n".join(out) + "\n"


#: Where :func:`resident_memory_bytes` reads this process's page counts.
STATM_PATH = "/proc/self/statm"


def resident_memory_bytes() -> Optional[int]:
    """This process's resident set size from ``/proc/self/statm`` (second
    field, in pages), or ``None`` where the file cannot be read."""
    try:
        with open(STATM_PATH) as statm:
            resident_pages = int(statm.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def service_gauges(service) -> Dict[str, float]:
    """Point-in-time gauges for :func:`render_prometheus` from a service."""
    gauges: Dict[str, float] = {}
    try:
        index = service.index
        gauges["index_triples"] = float(index.num_triples)
        gauges["index_epoch"] = float(getattr(index, "epoch", 0))
    except Exception:  # pragma: no cover - defensive: scrape must not 500
        pass
    rss = resident_memory_bytes()
    if rss is not None:
        gauges["process_resident_memory_bytes"] = float(rss)
    return gauges
