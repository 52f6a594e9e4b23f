"""The repository benchmark: one served workload, checked and measured.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {lookup,join,mixed_rw} --seed N \\
        --seconds S --trace {0,1}

It builds a container from a seeded dataset with ``repro build``, serves it
with ``repro serve`` in a subprocess, drives it over HTTP, checks every
answer against ground truth computed here, and prints one line per metric
followed, on the last line, by a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` sends SPARQL requests with
``"profile": true`` and replays the same ops in-process one layer down at a
time to report the per-layer metrics (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Setups per run; ``setup_s`` is their median.
SETUPS = 5
#: Length of each reader's pre-generated op stream (cycled if exhausted).
STREAM_LEN = 4000
#: Requests of a class a workload's timed phase does not send are measured
#: sequentially, one round of PROBE_OPS (ten samples beyond the 99th
#: percentile) per set-up; the run reports the median round.
PROBE_OPS = 1000
PROBE_ROUNDS = SETUPS
#: Seeded warm-up requests per setup (part of ``setup_s``).
WARMUP_OPS = {"lookup": 200, "join": 16, "mixed_rw": 20}
#: mixed_rw writer: triples inserted per batch and the batch distance at
#: which half of a batch's inserts are deleted again.
WRITE_BATCH = 4
DELETE_LAG = 25

ROOT = Path.cwd()


def environment() -> dict:
    import numpy
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    from workloads import fingerprint
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    tree = {str(p.relative_to(ROOT)): p.read_text() for p in sources}
    return {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "source_hash": fingerprint(tree)}


class Run:
    """Everything one invocation generates, serves and measures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path):
        import numpy as np
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.spec = wl.SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        store = wl.generate_store(workload)
        self.columns = np.stack(store.columns(), axis=1).astype(np.int64)
        self.source = work / "data.nt"
        np.savetxt(self.source, self.columns, fmt="%d")
        self.truth = wl.PatternTruth(self.columns)
        log = wl.query_log(workload)
        self.query_truth = wl.QueryTruth(self.columns, log) if log else None

        def rng(label: str) -> random.Random:
            return random.Random(f"{seed}/{workload}/{label}")

        self.readers = [self.reader_ops(rng(f"reader{i}"), STREAM_LEN)
                        for i in range(self.spec.readers)]
        self.warmup = [self.reader_ops(rng(f"warmup{i}"), WARMUP_OPS[workload])
                       for i in range(SETUPS)]
        self.writes = (wl.update_ops(self.columns, rng("writer"),
                                     int(self.spec.write_rate * seconds),
                                     WRITE_BATCH, DELETE_LAG)
                       if self.spec.write_rate else [])
        # The classes the timed phase does not send, for the probes.
        probes = PROBE_OPS * PROBE_ROUNDS
        self.probe_lookups = (wl.lookup_ops(self.columns, self.truth,
                                            rng("probe-lookup"), probes)
                              if workload == "join" else [])
        self.probe_queries = (wl.query_ops(workload, rng("probe-query"),
                                           probes, self.columns)
                              if workload == "lookup" else [])
        self.probe_updates = ([] if self.writes else
                              wl.update_ops(self.columns, rng("probe-update"),
                                            probes, 2, 1))
        self.fingerprint = {
            "seed": seed,
            "dataset": wl.fingerprint(self.columns),
            "ops": wl.fingerprint([self.readers, self.warmup, self.writes,
                                   self.probe_lookups, self.probe_queries,
                                   self.probe_updates]),
        }

    def reader_ops(self, rng: random.Random, count: int) -> List[dict]:
        """The op stream of one closed-loop reader (and of the warm-up)."""
        if self.workload == "lookup":
            return self.wl.lookup_ops(self.columns, self.truth, rng, count)
        return self.wl.query_ops(self.workload, rng, count)

    # ------------------------------------------------------------------ #

    def setup(self, number: int):
        """Build a fresh container, serve it, warm it up; returns the
        server and this setup's timings."""
        from harness import Server, build_container, run_sequential
        container = self.work / f"setup{number}.ridx"
        build_s = build_container(ROOT, self.source, container)
        container_bytes = container.stat().st_size
        # Compaction persists into the served file; keep the built one.
        shutil.copyfile(container, self.work / "built.ridx")
        flags = self.spec.serve_flags()
        if self.writes:
            flags += ["--wal", str(self.work / f"setup{number}.wal")]
        server = Server(ROOT, container, flags, self.work / "server.log")
        try:
            started = time.perf_counter()
            warmup = run_sequential(server.port, self.warmup[number])
            warmup_s = time.perf_counter() - started
        except BaseException:
            server.stop()
            raise
        timings = {"build_s": build_s, "ready_s": server.ready_s,
                   "warmup_s": warmup_s,
                   "setup_s": build_s + server.ready_s + warmup_s,
                   "container_bytes": container_bytes}
        return server, timings, warmup

    def start_twin(self):
        """A writable twin of a read-only workload's server, for its update
        probe: a copy of the built container, the same flags plus
        ``--writable``.  The twin keeps no WAL, so host disk-flush jitter
        does not set its tail; ``mixed_rw`` measures writes with the WAL."""
        from harness import Server
        twin = self.work / "twin.ridx"
        shutil.copyfile(self.work / "built.ridx", twin)
        return Server(ROOT, twin, self.spec.serve_flags() + ["--writable"],
                      self.work / "server.log")

    def probe_round(self, number: int, server, twin) -> list:
        """Round ``number`` of the probes.  Rounds run on different set-ups'
        servers, spread over the run, so one burst of host noise moves one
        round and the reported median round shuts it out."""
        from harness import run_sequential
        rounds = slice(number * PROBE_OPS, (number + 1) * PROBE_OPS)
        records = run_sequential(
            server.port, (self.probe_lookups + self.probe_queries)[rounds],
            profile=self.trace)
        if twin is not None:
            records += run_sequential(twin.port, self.probe_updates[rounds])
        return records

    def execute(self) -> dict:
        from harness import run_load
        setups, warmups, probes = [], [], []
        server = twin = None
        try:
            for number in range(SETUPS):
                server, timings, warmup = self.setup(number)
                setups.append(timings)
                warmups += warmup
                if twin is None and self.probe_updates:
                    twin = self.start_twin()
                if number < SETUPS - 1:
                    probes += self.probe_round(number, server, twin)
                    server.stop()
            load = run_load(server.port, self.readers, self.spec.keep_alive,
                            self.seconds, self.writes, self.spec.write_rate,
                            profile=self.trace)
            rss_mb = server.peak_rss_mb()
            server_stats = server.stats()
            probes += self.probe_round(SETUPS - 1, server, twin)
        finally:
            for process in (server, twin):
                if process is not None:
                    process.stop()
        return {"setups": setups, "load": load, "probes": probes,
                "warmup": warmups, "rss_mb": rss_mb,
                "server_stats": server_stats,
                "container": self.work / "built.ridx"}

    # ------------------------------------------------------------------ #

    def check(self, record) -> Optional[str]:
        """None if the record is a correct, successful answer."""
        if record.status != 200:
            return f"status {record.status}: {str(record.body)[:200]}"
        op, body = record.op, record.body
        if record.kind == "update":
            if (body.get("inserted") != len(op["insert"])
                    or body.get("deleted") != len(op["delete"])):
                return f"update applied {body.get('inserted')}/" \
                       f"{body.get('deleted')} of {op}"
            return None
        if record.kind == "lookup":
            if record.expect_count is not None:
                if body.get("count") != record.expect_count:
                    return f"read-your-writes {op['pattern']}: count " \
                           f"{body.get('count')}, expected {record.expect_count}"
                return None
            triples, has_more = self.truth.page(op["pattern"],
                                                op.get("offset", 0),
                                                op["limit"])
            if body.get("triples") != triples:
                return f"pattern {op['pattern']} offset {op.get('offset')}: " \
                       f"wrong page"
            if body.get("has_more") != has_more:
                return f"pattern {op['pattern']}: has_more {body.get('has_more')}"
            return None
        if self.query_truth is not None:
            return self.query_truth.check(op["name"], op["limit"], body)
        return self.check_pattern_query(op, body)

    def check_pattern_query(self, op: dict, body: dict) -> Optional[str]:
        """A one-pattern SPARQL page: the right size, every row a match."""
        where = op["sparql"].split("{", 1)[1].rsplit("}", 1)[0].split()
        pattern = [None if term.startswith("?") else int(term)
                   for term in where]
        total = self.truth.count(pattern)
        rows = body.get("bindings", [])
        if len(rows) != min(total, op["limit"]) or \
                bool(body.get("has_more")) != (total > op["limit"]):
            return f"{op['sparql']}: {len(rows)} rows of {total}"
        for row in rows:
            triple = [row[term[1:]] if term.startswith("?") else int(term)
                      for term in where]
            if self.truth.count(triple) != 1:
                return f"{op['sparql']}: row {row} is not a match"
        return None


def verify(run: Run, records) -> List[str]:
    """Check every record once per distinct answer; returns the failures."""
    seen: Dict[str, Optional[str]] = {}
    failures = []
    for record in records:
        key = json.dumps([record.kind, record.op, record.status,
                          record.expect_count, record.body.get("bindings"),
                          record.body.get("triples"),
                          record.body.get("has_more"),
                          record.body.get("count"),
                          record.body.get("inserted"),
                          record.body.get("deleted")], sort_keys=True)
        if key not in seen:
            try:
                seen[key] = run.check(record)
            except (KeyError, TypeError, ValueError, AttributeError) as error:
                seen[key] = f"malformed answer ({error!r}) to {record.op}"
        if seen[key] is not None:
            failures.append(seen[key])
    return failures


def end_to_end(run: Run, outcome: dict) -> Dict[str, dict]:
    """The user-visible metrics of one untraced run."""
    from harness import percentile
    load = outcome["load"]
    timed = load["records"]
    timed_kinds = {record.kind for record in timed}
    latency: Dict[str, tuple] = {}
    for kind in ("lookup", "query", "update"):
        if kind in timed_kinds:
            samples = [r.latency_s for r in timed if r.kind == kind]
            latency[kind] = (percentile(samples, .5), percentile(samples, .99))
            continue
        probed = [r.latency_s for r in outcome["probes"] if r.kind == kind]
        rounds = [probed[i:i + PROBE_OPS]
                  for i in range(0, len(probed), PROBE_OPS)]
        latency[kind] = tuple(
            statistics.median(percentile(round_, fraction) for round_ in rounds)
            for fraction in (.5, .99))
    ok = sum(1 for record in timed if record.status == 200)
    setups = outcome["setups"]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "throughput_ops_s": (ok / load["elapsed_s"], "1/s"),
    }
    for kind, (p50, p99) in latency.items():
        metrics[f"{kind}_p50_ms"] = (p50 * 1e3, "ms")
        metrics[f"{kind}_p99_ms"] = (p99 * 1e3, "ms")
    bits = statistics.median(s["container_bytes"] for s in setups) * 8 \
        / len(run.columns)
    metrics["index_bits_per_triple"] = (bits, "bits/triple")
    metrics["server_rss_mb"] = (outcome["rss_mb"], "MiB")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lookup", "join", "mixed_rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no repro sources (src/repro); run the "
              f"benchmark from the root of a checkout", file=sys.stderr)
        return 2
    # Stop the servers through the same cleanup when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import split_cpus
    client_cpus = split_cpus()[0]
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)

    env = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  work)
        # The client's collector pauses would show up as server latency;
        # the ladder re-enables it, as it measures the program in-process.
        gc.freeze()
        gc.disable()
        try:
            outcome = run.execute()
        finally:
            gc.enable()
        records = (outcome["warmup"] + outcome["load"]["records"]
                   + outcome["probes"])
        failures = verify(run, records)
        extra: Dict[str, float] = {}
        if args.trace:
            from ladder import per_layer
            metrics, extra = per_layer(run, outcome)
        else:
            metrics = end_to_end(run, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    attempted = len(records)
    failed = len(failures)
    samples = {kind: sum(1 for r in records if r.kind == kind)
               for kind in ("lookup", "query", "update")}
    lateness = outcome["load"]["lateness_s"]
    summary = {
        "workload": args.workload, "trace": args.trace,
        "fingerprint": run.fingerprint, "environment": env,
        "samples": samples, "error_ratio": failed / attempted,
        "writer_max_lateness_s": max(lateness) if lateness else 0.0,
        "compactions": outcome["server_stats"]["updates"]["compactions"],
        "setups": outcome["setups"], "failures": failures[:5],
        "metrics": metrics, "per_query_ms": extra,
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-{args.seed}-t{args.trace}-{stamp}.json"
     ).write_text(json.dumps(summary, indent=2, default=str))

    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in extra.items():
        print(f"{'queries.' + args.workload + '.' + name + '_ms':<44} "
              f"{value:>14.4f} ms (auto engine, full answer)")
    print(f"{'error_ratio':<44} {failed / attempted:>14.4f} failed/attempted")
    for failure in failures[:5]:
        print(f"FAILED: {failure}")
    print("# " + json.dumps({k: summary[k] for k in (
        "fingerprint", "environment", "samples", "writer_max_lateness_s",
        "compactions")}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
