"""The served side of the benchmark: build, spawn, drive and reap.

The server under test is the real single-box ``repro serve`` process.  The
client is this process: closed-loop reader threads and an optional
open-loop writer thread, at most ``nproc`` (2) threads with one connection
each, so the load generator never outnumbers the cores it shares with the
server.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Seconds a spawned server may take to print its address and pass /healthz.
START_TIMEOUT = 60.0
#: Per-request socket timeout; a request slower than this counts as failed.
REQUEST_TIMEOUT = 30.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def repro_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """(client CPUs, server CPUs): one core each when there are two or more.

    Pinning keeps the scheduler from stacking the client and the server on
    one core for part of a run, which otherwise varies the numbers from
    run to run more than any single layer does.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def _pin_to_server_cpus() -> None:
    server_cpus = split_cpus()[1]
    if server_cpus:
        os.sched_setaffinity(0, server_cpus)


def repro_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def build_container(root: Path, source: Path, target: Path) -> float:
    """``repro build --ids --align`` (planner stats bundled); returns seconds."""
    started = time.perf_counter()
    subprocess.run(repro_command("build", "--ids", "--align", str(source),
                                 "-o", str(target)),
                   env=repro_env(root), check=True, stdout=subprocess.DEVNULL,
                   timeout=300, preexec_fn=_pin_to_server_cpus)
    return time.perf_counter() - started


class Server:
    """One ``repro serve`` subprocess on a free port."""

    def __init__(self, root: Path, container: Path, flags: Sequence[str],
                 log_path: Path):
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            repro_command("serve", str(container), "--port", "0", "--quiet",
                          *flags),
            env=repro_env(root), stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=_pin_to_server_cpus)
        try:
            self.port = self._read_port(started + START_TIMEOUT)
            self._wait_healthy(started + START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        #: Spawn to the first 200 from ``/healthz``.
        self.ready_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        buffered = b""
        stream = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before it was serving")
            buffered += chunk
            for line in buffered.decode(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        raise RuntimeError("server did not report its address in time")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _ = Connection(self.port, False).get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stats(self) -> dict:
        status, body = Connection(self.port, False).get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def stop(self) -> None:
        """SIGTERM (the server's graceful path), then reap; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class Connection:
    """An HTTP/1.1 client: one keep-alive connection, or one per request."""

    def __init__(self, port: int, keep_alive: bool):
        self._port = port
        self._keep_alive = keep_alive
        self._conn: Optional[http.client.HTTPConnection] = None

    def _request(self, method: str, path: str, body: Optional[dict]):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT)
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self._conn.request(method, path, payload, headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if not self._keep_alive or response.will_close:
            self.close()
        return response.status, json.loads(data) if data else {}

    def get(self, path: str):
        return self._request("GET", path, None)

    def post(self, path: str, body: dict):
        return self._request("POST", path, body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Record:
    """One request as the client saw it."""

    kind: str            # "lookup" | "query" | "update"
    op: dict
    latency_s: float     # client-side; for the writer, from the due time
    status: int          # 0 = transport error
    body: dict = field(repr=False)
    #: Server-side ``elapsed_ms`` of a query response (None otherwise).
    server_ms: Optional[float] = None
    #: For read-your-writes lookups: the expected match count.
    expect_count: Optional[int] = None


def send(connection: Connection, kind: str, op: dict, profile: bool = False
         ) -> Record:
    """Send one op and time it; transport failures become status 0."""
    path = "/update" if kind == "update" else "/query"
    body = {k: v for k, v in op.items() if k != "name"}
    if profile and "sparql" in body:
        body["profile"] = True
    started = time.perf_counter()
    try:
        status, reply = connection.post(path, body)
    except (OSError, http.client.HTTPException, ValueError) as error:
        status, reply = 0, {"error": repr(error)}
    latency = time.perf_counter() - started
    server_ms = reply.get("elapsed_ms") if isinstance(reply, dict) else None
    return Record(kind, op, latency, status, reply, server_ms)


def op_kind(op: dict) -> str:
    if "pattern" in op:
        return "lookup"
    return "query" if "sparql" in op else "update"


def run_sequential(port: int, ops: Sequence[dict], profile: bool = False
                   ) -> List[Record]:
    """Send ``ops`` one after another, each on a fresh connection."""
    return [send(Connection(port, False), op_kind(op), op, profile)
            for op in ops]


def run_load(port: int, reader_streams: Sequence[Sequence[dict]],
             keep_alive: bool, seconds: float,
             writes: Sequence[dict] = (), write_rate: float = 0.0,
             profile: bool = False) -> dict:
    """The timed phase: closed-loop readers plus an open-loop writer.

    Each reader thread cycles through its own op stream until ``seconds``
    have passed.  The writer sends its fixed list of batches at
    ``write_rate`` per second, timing each from the moment it was due, and
    after every acknowledged batch reads back one written triple
    (read-your-writes).
    """
    records: List[List[Record]] = [[] for _ in range(len(reader_streams) + 1)]
    lateness: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds

    def reader(slot: int, stream: Sequence[dict]) -> None:
        connection = Connection(port, keep_alive)
        position = 0
        while time.perf_counter() < deadline:
            op = stream[position % len(stream)]
            records[slot].append(send(connection, op_kind(op), op, profile))
            position += 1
        connection.close()

    def writer() -> None:
        out = records[-1]
        for number, batch in enumerate(writes):
            due = started + number / write_rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due))
            record = send(Connection(port, False), "update", batch)
            record.latency_s = time.perf_counter() - due
            out.append(record)
            if record.status != 200:
                continue
            # Read one acknowledged write back: alternately an inserted
            # triple (must be there) and a deleted one (must be gone).
            if number % 2 and batch["delete"]:
                triple, expected = batch["delete"][0], 0
            else:
                triple, expected = batch["insert"][0], 1
            check = send(Connection(port, False), "lookup",
                         {"pattern": triple, "limit": 1})
            check.expect_count = expected
            out.append(check)

    threads = [threading.Thread(target=reader, args=(slot, stream))
               for slot, stream in enumerate(reader_streams)]
    if writes:
        threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat = [record for slot in records for record in slot]
    return {"records": flat, "elapsed_s": elapsed, "lateness_s": lateness}
