"""solve-mix: ``POST /v1/solve`` against ``repro serve --async``.

The server runs in its own process with the default coalescer and an
in-memory cache; this process is the load generator: one thread, two
keep-alive connections.  Every request is one 32-point speedup curve
over the 16 modification combinations x {1, 5, 20}% sharing.  Requests
alternate between a seeded 64-curve hot set (cache reads once warm)
and fresh curves carrying a seeded ``workload.tau`` override (solves
and cache writes).

The run time is cut into ``SEGMENTS`` segments, each a closed-loop
phase followed by an open-loop phase:

* closed loop -- each connection sends its next request as soon as the
  previous answer lands; completed requests per second is the
  capacity;
* open loop -- a seeded Poisson schedule at ``OPEN_LOAD`` times the
  capacity the segment just measured, pipelined over the two
  connections; each latency is timed from the request's due time, so a
  stall also delays the requests behind it, and the generator's own
  lateness is reported.

The open-loop rate follows the measured capacity because the speed of
a machine shared with other tenants drifts by up to 40% over minutes:
at a fixed 150 requests/s a slow spell pushed the utilisation from 0.4
to 0.8 and the median latency from 7 to 19 ms.  The p99 is printed
with its sample count but is not a gated metric: host stalls of tens
of milliseconds moved it by 30-60% (quartile spread over runs) at
either rate.
"""

from __future__ import annotations

import itertools
import json
import random
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any

import checks
from common import (
    BENCH_DIR,
    ROOT,
    SETUP_SAMPLES,
    BenchError,
    child_env,
    fresh_dir,
    median,
    peak_rss_mb,
    percentile,
    pin_to_load_cpus,
    pin_to_program_cpu,
    stop,
)

HOT_CURVES = 64
CURVE_POINTS = 32
SHARING = ("1", "5", "20")
CONNECTIONS = 2
#: Open-loop arrival rate as a share of the capacity just measured.
OPEN_LOAD = 0.5
#: Share of the run spent in closed-loop phases.
CLOSED_SHARE = 0.25
#: Closed/open segment pairs per run; the throughput is the median of
#: the segments' capacities, so one stall moves one segment.
SEGMENTS = 3
#: Responses compared cell by cell against the in-process model.
EXACT_SAMPLE = 24
#: Longest wait for outstanding answers after a phase ends.
DRAIN_S = 30.0


def protocol_names() -> list[str]:
    """The 16 modification combinations as request ``protocol`` values."""
    names = []
    for size in range(5):
        for mods in itertools.combinations((1, 2, 3, 4), size):
            names.append(",".join(map(str, mods)) or "write-once")
    return names


def make_requests(seed: int, count: int) -> list[dict[str, Any]]:
    """``count`` request payloads alternating hot and fresh curves."""
    rng = random.Random(f"solve-mix:{seed}")
    protocols = protocol_names()

    def curve() -> dict[str, Any]:
        start = rng.randint(1, 97)
        return {"protocol": rng.choice(protocols),
                "sharing": rng.choice(SHARING),
                "n": list(range(start, start + CURVE_POINTS))}

    hot: dict[str, dict[str, Any]] = {}
    while len(hot) < HOT_CURVES:
        body = curve()
        hot.setdefault(json.dumps(body, sort_keys=True), body)
    hot_set = list(hot.values())
    rng.shuffle(hot_set)
    requests = []
    for index in range(count):
        if index % 2 == 0:
            requests.append(hot_set[(index // 2) % HOT_CURVES])
        else:
            fresh = curve()
            fresh["workload"] = {"tau": round(rng.uniform(1.0, 5.0), 12)}
            requests.append(fresh)
    return requests


def render(port: int, payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return (f"POST /v1/solve HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class Connection:
    """One keep-alive socket with pipelined requests in flight."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = bytearray()
        #: (request index, due time) of every request awaiting an answer.
        self.waiting: deque[tuple[int, float]] = deque()
        self.broken = False

    def send(self, index: int, due: float, data: bytes) -> None:
        self.sock.setblocking(True)
        try:
            self.sock.sendall(data)
        except OSError:
            self.broken = True
        finally:
            self.sock.setblocking(False)
        self.waiting.append((index, due))

    def receive(self) -> list[tuple[int, float, int, bytes]]:
        """Read what arrived; return completed answers as
        ``(index, due, status, body)``."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self.broken = True
            return []
        self.buffer += data
        done = []
        while self.waiting:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(self.buffer[:head_end]).decode("latin-1")
            length = 0
            for line in head.split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            end = head_end + 4 + length
            if len(self.buffer) < end:
                break
            status = int(head.split(" ", 2)[1])
            body = bytes(self.buffer[head_end + 4:end])
            del self.buffer[:end]
            index, due = self.waiting.popleft()
            done.append((index, due, status, body))
        return done

    def close(self) -> None:
        self.sock.close()


class LoadGenerator:
    """Both load phases over the same two connections."""

    def __init__(self, port: int, requests: list[dict[str, Any]]):
        self.requests = requests
        self.wire = [render(port, payload) for payload in requests]
        self.conns = [Connection(port) for _ in range(CONNECTIONS)]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.next_index = 0
        self.sent = 0
        #: index -> (status, body); transport failures are missing.
        self.answers: dict[int, tuple[int, bytes]] = {}

    def _send(self, conn: Connection, due: float) -> int:
        index = self.next_index
        if index >= len(self.wire):
            raise BenchError("request list exhausted; raise its size")
        self.next_index += 1
        self.sent += 1
        conn.send(index, due, self.wire[index])
        return index

    def _poll(self, timeout: float) -> list[tuple[Connection, int, float]]:
        """Wait up to ``timeout``; return (conn, index, due) answered."""
        done = []
        for key, _ in self.selector.select(max(0.0, timeout)):
            conn = key.data
            for index, due, status, body in conn.receive():
                self.answers[index] = (status, body)
                done.append((conn, index, due))
            if conn.broken:
                self.selector.unregister(conn.sock)
                conn.waiting.clear()
        return done

    def _drain(self) -> None:
        limit = time.perf_counter() + DRAIN_S
        while any(c.waiting and not c.broken for c in self.conns) \
                and time.perf_counter() < limit:
            self._poll(0.2)

    def warm(self, count: int) -> None:
        """Send ``count`` requests one at a time (untimed)."""
        conn = self.conns[0]
        for _ in range(count):
            self._send(conn, time.perf_counter())
            while conn.waiting and not conn.broken:
                self._poll(1.0)

    def closed_loop(self, seconds: float) -> list[float]:
        """Completion times (from the phase start) of the requests
        answered within ``seconds``."""
        started = time.perf_counter()
        end = started + seconds
        for conn in self.conns:
            self._send(conn, started)
        completions: list[float] = []
        while time.perf_counter() < end:
            for conn, _index, _due in self._poll(end - time.perf_counter()):
                now = time.perf_counter()
                if now <= end:
                    completions.append(now - started)
                    if not conn.broken:
                        self._send(conn, now)
            if all(c.broken for c in self.conns):
                break
        self._drain()
        return completions

    def open_loop(self, seconds: float, rate: float, rng: random.Random
                  ) -> tuple[list[float], list[float]]:
        """Latency from due time of each answer and send lateness of
        each request (ms) for Poisson arrivals at ``rate``."""
        offsets = []
        at = rng.expovariate(rate)
        while at < seconds:
            offsets.append(at)
            at += rng.expovariate(rate)
        started = time.perf_counter()
        latencies: list[float] = []
        lateness: list[float] = []
        position = 0
        while position < len(offsets) or any(
                c.waiting and not c.broken for c in self.conns):
            now = time.perf_counter()
            while position < len(offsets) and started + offsets[position] <= now:
                due = started + offsets[position]
                live = [c for c in self.conns if not c.broken]
                if not live:
                    return latencies, lateness
                conn = min(live, key=lambda c: len(c.waiting))
                self._send(conn, due)
                lateness.append(1000.0 * (time.perf_counter() - due))
                position += 1
            if position < len(offsets):
                wait = started + offsets[position] - time.perf_counter()
            else:
                wait = 0.2
                if time.perf_counter() > started + seconds + DRAIN_S:
                    break
            for _conn, _index, due in self._poll(wait):
                latencies.append(1000.0 * (time.perf_counter() - due))
        return latencies, lateness

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()


# -- the server process ---------------------------------------------------


def start_server(trace_out: Path | None, log_path: Path
                 ) -> tuple[subprocess.Popen, int, float]:
    """Start the server; return (process, port, set-up seconds).

    Set-up runs from process start to the first ``/v1/healthz`` 200.
    """
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", "serve", "--async",
                "--port", "0"]
    else:
        argv = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                str(trace_out)]
    started = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                env=child_env(), cwd=ROOT, text=True,
                                preexec_fn=pin_to_program_cpu)
    try:
        assert proc.stdout is not None
        banner = proc.stdout.readline()
        if "listening on http://" not in banner:
            raise BenchError(f"server did not start: {banner!r}")
        port = int(banner.split("listening on http://", 1)[1]
                   .split()[0].rsplit(":", 1)[1])
        deadline = started + 60.0
        while not _healthy(port):
            if time.perf_counter() > deadline or proc.poll() is not None:
                raise BenchError("server never became healthy")
            time.sleep(0.005)
        return proc, port, time.perf_counter() - started
    except BaseException:
        stop(proc)
        raise


def _healthy(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"
                      b"Connection: close\r\n\r\n")
            return s.recv(64).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


def shutdown(proc: subprocess.Popen, graceful: bool) -> None:
    """Stop the server; ``graceful`` lets the traced launcher write out
    its spans first."""
    if graceful and proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
    stop(proc)
    if proc.stdout is not None:
        proc.stdout.close()


# -- the workload ----------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    pin_to_load_cpus()
    work = fresh_dir("solve-mix")
    log = work / "server.log"
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, _port, setup_s = start_server(None, log)
        setups.append(setup_s)
        shutdown(proc, graceful=False)
    trace_out = work / "layers.json" if trace else None
    proc, port, setup_s = start_server(trace_out, log)
    setups.append(setup_s)
    try:
        closed_s = seconds * CLOSED_SHARE / SEGMENTS
        open_s = seconds * (1 - CLOSED_SHARE) / SEGMENTS
        requests = make_requests(seed, int(2 * HOT_CURVES + 800 * seconds))
        arrivals = random.Random(f"solve-mix-arrivals:{seed}")
        load = LoadGenerator(port, requests)
        rates: list[float] = []
        latencies: list[float] = []
        lateness: list[float] = []
        try:
            load.warm(2 * HOT_CURVES)
            for _ in range(SEGMENTS):
                done = load.closed_loop(closed_s)
                rates.append(len(done) / done[-1] if done else 0.0)
                late_ms, sent_late = load.open_loop(
                    open_s, OPEN_LOAD * rates[-1], arrivals)
                latencies += late_ms
                lateness += sent_late
        finally:
            load.close()
        rss = peak_rss_mb(proc.pid)
    finally:
        shutdown(proc, graceful=trace)

    # Output checks (untimed): every answer, then a seeded sample
    # against the in-process scalar solve.
    sent = load.sent
    bad = set()
    for index in range(sent):
        answer = load.answers.get(index)
        if answer is None or answer[0] != 200 \
                or not checks.solve_response_ok(answer[1], requests[index]):
            bad.add(index)
    good = [i for i in range(sent) if i not in bad]
    sample = random.Random(f"solve-mix-check:{seed}").sample(
        good, min(EXACT_SAMPLE, len(good)))
    for index in sample:
        if not checks.solve_response_exact(load.answers[index][1],
                                           requests[index]):
            bad.add(index)
    http_failed = sum(1 for i in range(sent)
                      if load.answers.get(i, (0,))[0] != 200)

    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": median(rates),
        "call_p50_ms": percentile(latencies, 0.50),
    }
    report = {"call_p99_ms": percentile(latencies, 0.99)}
    notes = {
        "closed_loop": "capacity per segment (req/s over "
                       f"{CONNECTIONS} connections): "
                       + ", ".join(f"{r:.1f}" for r in rates),
        "open_loop": f"{len(latencies)} latency samples at "
                     f"{OPEN_LOAD:.0%} of each segment's capacity, "
                     f"{len(latencies) // 100} beyond the p99",
        "exact_check": f"{len(sample)} responses x {CURVE_POINTS} cells",
    }
    layers: dict[str, float] = {}
    if trace:
        layers = json.loads(trace_out.read_text())
        layers["http.attempted"] = sent
        layers["http.failed"] = http_failed
        layers["http.late_p99_ms"] = percentile(lateness, 0.99)
    return {"attempted": sent, "failed": len(bad), "e2e": e2e,
            "report": report, "layers": layers, "notes": notes}
