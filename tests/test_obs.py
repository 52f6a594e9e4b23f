"""Tests for the observability layer: spans, slow-query log, structured
logs, percentiles, the ``profile`` request knob and the metrics families
it feeds.

Three layers:

* pure-unit tests for :mod:`repro.obs` (span trees, trace-context codec,
  slow-log atomicity and truncation, structured log formats, the explain
  renderer);
* :class:`QueryService`-level tests that profiling yields the documented
  span tree — and, property-tested across both engines, all four layouts
  and a delta overlay, never changes a query's results or their order;
* HTTP-level tests for the ``"profile": true`` knob, the ``X-Trace-Id``
  header and the Prometheus exposition (content type and field-set parity
  between a single-box block and a pool-sized block).
"""

import io
import json
import logging
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_index
from repro.dynamic import DynamicIndex
from repro.obs import (
    OperatorCounters,
    QueryProfile,
    SlowQueryLog,
    Span,
    StructuredLogger,
    decode_trace_context,
    encode_trace_context,
    new_span_id,
    new_trace_id,
    render_profile,
)
from repro.obs.slowlog import ATOMIC_LINE_BYTES
from repro.rdf.triples import TripleStore
from repro.service import MetricsBlock, QueryService, build_server
from repro.service.engine import _percentile, latency_report
from repro.service.metrics import render_prometheus

KNOWS, WORKS_FOR, LIKES = 0, 1, 2

TRIPLES = sorted(
    {(i, KNOWS, (i + 1) % 24) for i in range(24)}
    | {(i, KNOWS, (i + 5) % 24) for i in range(24)}
    | {(i, WORKS_FOR, 100 + i % 3) for i in range(24)}
    | {(i, LIKES, 200 + i % 7) for i in range(0, 24, 2)}
)

JOIN_QUERY = "SELECT ?x ?y ?c WHERE { ?x 0 ?y . ?y 1 ?c }"
TRIANGLE_QUERY = "SELECT ?x ?y ?z WHERE { ?x 0 ?y . ?y 0 ?z . ?x 0 ?z }"


@pytest.fixture(scope="module")
def store():
    return TripleStore.from_triples(TRIPLES)


@pytest.fixture(scope="module")
def index(store):
    return build_index(store, "2tp")


# --------------------------------------------------------------------------- #
# Span trees and the trace-context codec.
# --------------------------------------------------------------------------- #

class TestSpans:
    def test_ids_are_lowercase_hex(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and int(trace_id, 16) >= 0
        assert len(span_id) == 16 and int(span_id, 16) >= 0
        assert trace_id == trace_id.lower()
        assert new_trace_id() != trace_id

    def test_json_round_trip(self):
        profile = QueryProfile(name="query")
        with profile.span("execute") as execute:
            execute.attrs["engine"] = "wcoj"
            child = execute.child("var:?x")
            child.counters["seeks"] = 3
            child.finish()
        profile.finish()
        doc = profile.to_json()
        assert set(doc) == {"trace_id", "root"}
        rebuilt = QueryProfile.from_json(doc)
        assert rebuilt.to_json() == doc
        names = [span.name for span in rebuilt.root.walk()]
        assert names == ["query", "execute", "var:?x"]

    def test_parent_span_ids_link_the_tree(self):
        profile = QueryProfile(name="query")
        span = profile.span("plan")
        span.finish()
        assert span.parent_span_id == profile.root.span_id

    def test_finish_is_idempotent(self):
        span = Span("s")
        span.finish()
        first = span.elapsed_seconds
        span.finish()
        assert span.elapsed_seconds == first

    def test_codec_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        context = encode_trace_context(trace_id, span_id)
        assert decode_trace_context(context) == (trace_id, span_id)

    @pytest.mark.parametrize("payload", [
        None, "xx", 7, [], {},
        {"trace_id": "ZZZZ"},                 # non-hex
        {"trace_id": 123},                    # wrong type
        {"trace_id": "ab"},                   # too short
        {"trace_id": "a" * 65},               # too long
        {"parent_span_id": "g" * 16},         # non-hex parent
    ])
    def test_codec_tolerates_malformed_input(self, payload):
        trace_id, parent = decode_trace_context(payload)
        if isinstance(payload, dict) and "trace_id" not in payload:
            pass  # parent-only payloads: trace id absent, parent invalid
        assert trace_id is None
        assert parent is None

    def test_encode_drops_invalid_ids(self):
        assert encode_trace_context("not hex", "also bad") == {}

    def test_operator_counters_attach_only_nonzero(self):
        counters = OperatorCounters("?x", estimate=12.0)
        counters.visits = 2
        counters.bindings = 5
        root = Span("execute")
        span = counters.attach(root, "var")
        assert span.name == "var:?x"
        assert span.counters == {"visits": 2, "bindings": 5}
        assert span.attrs["estimated"] == 12.0
        assert span.attrs["actual"] == 5
        assert span.elapsed_seconds == 0.0


# --------------------------------------------------------------------------- #
# Slow-query log.
# --------------------------------------------------------------------------- #

class TestSlowQueryLog:
    def test_records_are_one_json_line_each(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), threshold_ms=100.0)
        assert log.should_log(0.2)
        assert not log.should_log(0.05)
        log.record({"query": "SELECT", "elapsed_ms": 200.0})
        log.record({"query": "SELECT 2", "elapsed_ms": 300.0})
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2 == log.records_written
        for line in lines:
            entry = json.loads(line)
            assert "ts" in entry and "pid" in entry

    def test_lines_stay_within_the_atomic_bound(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), threshold_ms=0.0)
        log.record({
            "query": "SELECT " + "x" * 10_000,
            "profile": {"root": {"name": "q", "attrs": {"x": "y" * 20_000}}},
        })
        log.close()
        (line,) = path.read_text().splitlines()
        assert len(line.encode("utf-8")) + 1 <= ATOMIC_LINE_BYTES
        entry = json.loads(line)
        # The cascade drops the profile body first (keeping only the trace
        # id for correlation), then truncates the query text.
        assert set(entry["profile"]) == {"trace_id"}
        assert len(entry["query"]) <= 512
        assert entry["truncated"] is True

    def test_write_failures_never_raise(self, tmp_path):
        log = SlowQueryLog(str(tmp_path / "missing" / "slow.jsonl"),
                           threshold_ms=0.0)
        log.record({"query": "SELECT"})  # ENOENT swallowed
        assert log.records_written == 0
        log.close()


# --------------------------------------------------------------------------- #
# Structured logs.
# --------------------------------------------------------------------------- #

class TestStructuredLogs:
    def _capture(self, log_format):
        stream = io.StringIO()
        logger = StructuredLogger("testsub", log_format, stream=stream)
        return logger, stream

    def test_json_lines_parse(self):
        logger, stream = self._capture("json")
        logger.info("access", method="POST", path="/query", status=200,
                    trace_id="ab" * 16, skipped=None)
        entry = json.loads(stream.getvalue())
        assert entry["event"] == "access"
        assert entry["level"] == "info"
        assert entry["logger"] == "repro.testsub"
        assert entry["status"] == 200
        assert "skipped" not in entry  # None fields are dropped

    def test_text_lines_quote_awkward_values(self):
        logger, stream = self._capture("text")
        logger.warning("http", message="bad request syntax")
        line = stream.getvalue().strip()
        assert "repro.testsub http" in line
        assert 'message="bad request syntax"' in line

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            StructuredLogger("x", "xml")

    def test_logging_integration_level(self):
        logger, stream = self._capture("json")
        assert logging.getLogger("repro.testsub").propagate is False
        logger.error("boom", reason="test")
        assert json.loads(stream.getvalue())["level"] == "error"


# --------------------------------------------------------------------------- #
# Percentiles: p50 <= p90 <= p99 for every window.
# --------------------------------------------------------------------------- #

class TestPercentiles:
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_percentiles_are_monotone(self, latencies):
        report = latency_report(latencies)
        assert report["p50"] <= report["p90"] <= report["p99"]
        assert report["p99"] <= report["max"] or not latencies
        assert report["window"] == len(latencies)

    def test_single_sample_window(self):
        report = latency_report([0.002])
        assert report["p50"] == report["p90"] == report["p99"] == 2.0
        assert report["max"] == 2.0

    def test_empty_window(self):
        assert _percentile([], 0.5) == 0.0
        report = latency_report([])
        assert report["mean"] == report["p99"] == report["max"] == 0.0

    def test_nearest_rank_values(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.50) == 2.0
        assert _percentile(values, 0.90) == 4.0
        assert _percentile(values, 1.00) == 4.0


# --------------------------------------------------------------------------- #
# Service-level profiling.
# --------------------------------------------------------------------------- #

class TestServiceProfile:
    def _service(self, index, **options):
        return QueryService(index, **options)

    def test_profile_off_by_default(self, index):
        result = self._service(index).execute(JOIN_QUERY)
        assert result.profile is None
        assert set(result.stages) == {"parse", "plan", "execute"}

    def test_profile_tree_shape_nested(self, index):
        result = self._service(index, engine="nested").execute(
            JOIN_QUERY, profile=True)
        profile = result.profile
        assert profile is not None
        root = profile["root"]
        assert root["attrs"]["engine"] == "nested"
        stages = [child["name"] for child in root["children"]]
        assert stages == ["parse", "plan", "execute"]
        execute = root["children"][-1]
        operators = [child["name"] for child in execute["children"]]
        assert operators == ["pattern:?x 0 ?y", "pattern:?y 1 ?c"]
        for operator in execute["children"]:
            assert operator["attrs"]["actual"] >= 0
            assert operator["attrs"]["estimated"] >= 0

    def test_profile_tree_shape_wcoj(self, index):
        result = self._service(index, engine="wcoj").execute(
            TRIANGLE_QUERY, profile=True)
        execute = result.profile["root"]["children"][-1]
        operators = [child["name"] for child in execute["children"]]
        assert sorted(operators) == ["var:?x", "var:?y", "var:?z"]
        assert execute["counters"]["seeks"] >= 1
        total_bindings = sum(child["counters"].get("bindings", 0)
                             for child in execute["children"])
        assert total_bindings >= result.count

    def test_profile_actuals_match_result_count(self, index):
        result = self._service(index, engine="nested").execute(
            JOIN_QUERY, profile=True)
        last = result.profile["root"]["children"][-1]["children"][-1]
        assert last["attrs"]["actual"] == len(result.bindings)

    def test_cache_hit_profile_is_marked(self, index):
        service = self._service(index)
        service.execute(JOIN_QUERY, profile=True)
        warm = service.execute(JOIN_QUERY, profile=True)
        assert warm.cached is True
        execute = [child for child in warm.profile["root"]["children"]
                   if child["name"] == "execute"][0]
        assert execute["attrs"]["cache_hit"] is True

    def test_trace_context_is_honored(self, index):
        trace_id = new_trace_id()
        result = self._service(index).execute(
            JOIN_QUERY, profile=True,
            trace={"trace_id": trace_id, "parent_span_id": new_span_id()})
        assert result.profile["trace_id"] == trace_id

    def test_malformed_trace_context_mints_fresh(self, index):
        result = self._service(index).execute(
            JOIN_QUERY, profile=True, trace={"trace_id": "nope"})
        assert len(result.profile["trace_id"]) == 32

    def test_statistics_count_profile_requests(self, index):
        service = self._service(index)
        service.execute(JOIN_QUERY, profile=True)
        service.execute(JOIN_QUERY)
        report = service.statistics()
        assert report["requests"]["profile_requests"] == 1
        assert report["requests"]["slow_queries"] == 0
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]

    def test_slow_log_records_offending_queries(self, index, tmp_path):
        path = tmp_path / "slow.jsonl"
        service = self._service(index, slow_log=str(path), slow_ms=0.0)
        service.execute(JOIN_QUERY)          # every query is "slow" at 0ms
        service.execute(JOIN_QUERY)          # cache hit logs too
        service.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        for entry in entries:
            assert entry["query"] == JOIN_QUERY
            assert entry["elapsed_ms"] >= 0.0
            assert entry["profile"]["root"]["name"] == "query"
        assert entries[1]["cached"] is True
        assert service.statistics()["requests"]["slow_queries"] == 2

    def test_slow_log_does_not_leak_profile_to_caller(self, index, tmp_path):
        service = self._service(index, slow_log=str(tmp_path / "s.jsonl"),
                                slow_ms=0.0)
        result = service.execute(JOIN_QUERY)
        assert result.profile is None        # armed log != requested profile
        service.close()

    def test_failed_query_is_slow_logged(self, index, tmp_path):
        from repro.errors import QueryTimeoutError
        path = tmp_path / "slow.jsonl"
        service = self._service(index, slow_log=str(path), slow_ms=0.0)
        with pytest.raises(QueryTimeoutError):
            service.execute(JOIN_QUERY, timeout=1e-9)
        service.close()
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(entry.get("error") == "QueryTimeoutError"
                   for entry in entries)


# --------------------------------------------------------------------------- #
# Profiling never changes results: both engines x all layouts x overlay.
# --------------------------------------------------------------------------- #

@st.composite
def _graphs(draw):
    edges = draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 2), st.integers(0, 12)),
        min_size=1, max_size=60))
    return sorted(set(edges))


class TestProfileInvariance:
    @given(triples=_graphs(), layout=st.sampled_from(("3t", "cc", "2tp", "2to")),
           engine=st.sampled_from(("nested", "wcoj")),
           overlay=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_profile_never_changes_results(self, triples, layout, engine,
                                           overlay):
        index = build_index(TripleStore.from_triples(triples), layout)
        if overlay:
            index = DynamicIndex(index)
            index.insert([(90, 0, 91), (91, 1, 92)])
            index.delete(triples[:1])
        service = QueryService(index, result_cache_size=0, engine=engine)
        for query in (JOIN_QUERY, TRIANGLE_QUERY):
            plain = service.execute(query)
            profiled = service.execute(query, profile=True)
            assert profiled.bindings == plain.bindings
            assert profiled.variables == plain.variables
            assert profiled.statistics["patterns_executed"] == \
                plain.statistics["patterns_executed"]
            assert profiled.profile is not None


# --------------------------------------------------------------------------- #
# Explain renderer.
# --------------------------------------------------------------------------- #

class TestExplainRender:
    def test_renders_tree_with_est_and_act(self, index):
        result = QueryService(index, engine="wcoj").execute(
            JOIN_QUERY, profile=True)
        text = render_profile(result.profile)
        assert text.startswith("trace ")
        assert "├─ " in text and "└─ " in text
        assert "est=" in text and "act=" in text
        assert "var:?x" in text or "var:?y" in text

    def test_handles_missing_profile(self):
        assert render_profile(None) == "(no profile)"
        assert render_profile("garbage") == "(no profile)"


# --------------------------------------------------------------------------- #
# HTTP: the profile knob, trace header, metrics exposition.
# --------------------------------------------------------------------------- #

def _post(url, body, headers=None):
    request = urllib.request.Request(
        url + "/query", data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), \
                response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


@pytest.fixture(scope="module")
def http_server(index):
    block = MetricsBlock(1)
    service = QueryService(index)
    server = build_server(service, host="127.0.0.1", port=0, quiet=True,
                          metrics=block.worker(0), metrics_block=block)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    block.close()


class TestHttpProfile:
    def test_profile_knob_returns_span_tree(self, http_server):
        status, body, headers = _post(http_server,
                                      {"sparql": JOIN_QUERY, "profile": True})
        assert status == 200
        assert body["profile"]["root"]["attrs"]["engine"]
        assert body["profile"]["trace_id"] == headers["X-Trace-Id"]

    def test_profile_defaults_off_the_wire(self, http_server):
        status, body, _ = _post(http_server, {"sparql": JOIN_QUERY})
        assert status == 200
        assert "profile" not in body

    def test_profile_must_be_boolean(self, http_server):
        status, body, _ = _post(http_server,
                                {"sparql": JOIN_QUERY, "profile": "yes"})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"

    def test_profile_rejected_for_patterns(self, http_server):
        status, body, _ = _post(
            http_server, {"pattern": [None, 0, None], "profile": True})
        assert status == 400
        assert "SPARQL" in body["error"]["message"]

    def test_trace_id_header_round_trips(self, http_server):
        trace_id = new_trace_id()
        status, body, headers = _post(http_server,
                                      {"sparql": JOIN_QUERY, "profile": True},
                                      headers={"X-Trace-Id": trace_id})
        assert status == 200
        assert headers["X-Trace-Id"] == trace_id
        assert body["profile"]["trace_id"] == trace_id

    def test_invalid_trace_header_is_replaced(self, http_server):
        status, _, headers = _post(http_server, {"sparql": JOIN_QUERY},
                                   headers={"X-Trace-Id": "!!injection!!"})
        assert status == 200
        assert headers["X-Trace-Id"] != "!!injection!!"
        assert len(headers["X-Trace-Id"]) == 32

    def test_metrics_content_type_is_prometheus(self, http_server):
        request = urllib.request.Request(http_server + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"] == \
                "text/plain; version=0.0.4; charset=utf-8"
            text = response.read().decode("utf-8")
        assert "repro_profile_requests_total" in text
        assert "repro_slow_queries_total" in text
        assert 'repro_engine_seeks_total{engine="wcoj"}' in text
        assert "repro_plan_seconds_bucket" in text
        assert "repro_execute_seconds_count" in text
        assert "repro_serialize_seconds_sum" in text

    def test_metrics_report_resident_memory(self, http_server, monkeypatch):
        def gauge(text):
            for line in text.splitlines():
                if line.startswith("repro_process_resident_memory_bytes "):
                    return float(line.split()[1])
            return None
        with urllib.request.urlopen(http_server + "/metrics") as response:
            assert gauge(response.read().decode("utf-8")) > 0
        # Where /proc cannot be read the gauge is left out, never a 500.
        monkeypatch.setattr("repro.service.metrics.STATM_PATH",
                            "/nonexistent/statm")
        with urllib.request.urlopen(http_server + "/metrics") as response:
            assert gauge(response.read().decode("utf-8")) is None

    def test_stage_histograms_count_requests(self, http_server):
        def counts(text):
            return {line.split()[0]: float(line.split()[1])
                    for line in text.splitlines()
                    if line.startswith(("repro_plan_seconds_count",
                                        "repro_execute_seconds_count",
                                        "repro_serialize_seconds_count"))}
        with urllib.request.urlopen(http_server + "/metrics") as response:
            before = counts(response.read().decode("utf-8"))
        _post(http_server, {"sparql": JOIN_QUERY})
        with urllib.request.urlopen(http_server + "/metrics") as response:
            after = counts(response.read().decode("utf-8"))
        for name in before:
            assert after[name] == before[name] + 1

    def test_stats_reports_profile_counters(self, http_server):
        _post(http_server, {"sparql": JOIN_QUERY, "profile": True})
        with urllib.request.urlopen(http_server + "/stats") as response:
            report = json.loads(response.read())
        assert report["requests"]["profile_requests"] >= 1
        assert "slow_queries" in report["requests"]
        latency = report["latency_ms"]
        assert latency["p50"] <= latency["p90"] <= latency["p99"]


class TestMetricsParity:
    def test_field_sets_identical_across_block_sizes(self):
        single, pool = MetricsBlock(1), MetricsBlock(4)
        try:
            def families(block):
                names = set()
                for line in render_prometheus(block).splitlines():
                    if line and not line.startswith("#"):
                        names.add(line.split("{")[0].split(" ")[0])
                return names
            assert families(single) == families(pool)
        finally:
            single.close()
            pool.close()
