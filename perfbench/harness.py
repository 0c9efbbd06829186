"""Plumbing shared by the workloads: program hosts, the HTTP client, the
operation tally and the run context that owns every resource.

Everything a run starts — host processes, their servers and ports, data
directories — belongs to one :class:`Run` and is released by
:meth:`Run.close` on every exit path; a watchdog ends the whole run if
it overstays its time limit.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Socket timeout of one HTTP operation, seconds.
HTTP_TIMEOUT = 30.0

#: Set-ups per run.  Each gets fresh program processes and an equal
#: share of the timed budget; the run reports the median set-up time and
#: pools the latencies, so no single process or moment decides a figure.
REPS = 4


@contextlib.contextmanager
def apart() -> Iterator[Optional[List[int]]]:
    """Run this process (the load generator) on its lowest CPU and yield
    the other CPUs for the program processes it starts meanwhile (None
    where there is only one, or no affinity call).  Client and server then
    never share a CPU and never trade places: every request crosses CPUs
    on every run, so the cost of each wake-up is in every figure and the
    server keeps every CPU but one for itself."""
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [])
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, cpus[:1])
    try:
        yield cpus[1:]
    finally:
        os.sched_setaffinity(0, cpus)


class HostError(RuntimeError):
    """A program host refused a command or died."""


class Host:
    """One program process (``host.py``) and its control channel."""

    def __init__(self, tracing: bool,
                 cpus: Optional[List[int]] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "host.py"),
                   "--src", SRC] + (["--trace"] if tracing else [])
        if cpus:
            command += ["--cpus", ",".join(map(str, cpus))]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, cwd=ROOT)
        self._read()  # the hello line: imports are done
        #: Interpreter start and imports, kept out of ``setup_s``.
        self.start_s = time.perf_counter() - start

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise HostError(f"program host exited with code "
                            f"{self.proc.wait()}")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise HostError(reply.get("error", "unknown host error"))
        return reply

    def call(self, op: str, **args: object) -> dict:
        try:
            self.proc.stdin.write(json.dumps({"op": op, "args": args}) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as error:
            raise HostError(f"program host is gone: {error}") from error
        return self._read()

    def close(self) -> None:
        """Ask the host to stop; kill it if it does not, and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.flush()
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def http(port: int, method: str, path: str, body: bytes = b"",
         ctype: Optional[str] = None) -> Tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection (the server closes it
    after each response): returns ``(status, body)``."""
    head = [f"{method} {path} HTTP/1.0", "Host: 127.0.0.1"]
    if method == "POST":
        head.append(f"Content-Length: {len(body)}")
        if ctype:
            head.append(f"Content-Type: {ctype}")
    request = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=HTTP_TIMEOUT) as sock:
        sock.sendall(request)
        parts = []
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            parts.append(data)
    response = b"".join(parts)
    header, _, payload = response.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, payload


def get_json(port: int, path: str) -> dict:
    status, body = http(port, "GET", path)
    if status != 200:
        raise HostError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


class Tally:
    """Latencies, attempted and failed counts per kind of operation."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Dict[str, int] = defaultdict(int)
        self.failed: Dict[str, int] = defaultdict(int)
        self.tuples = 0

    def op(self, kind: str, call: Callable[[], Tuple[int, bytes]],
           tuples: int = 0) -> Optional[bytes]:
        """Time one operation; returns its body, or None if it failed."""
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            status, body = call()
        except OSError:
            status, body = 0, b""
        elapsed = time.perf_counter() - start
        if status != 200:
            self.failed[kind] += 1
            return None
        self.latency[kind].append(elapsed)
        self.tuples += tuples
        return body

    def merge(self, other: "Tally") -> None:
        for kind, values in other.latency.items():
            self.latency[kind].extend(values)
        for kind, count in other.attempted.items():
            self.attempted[kind] += count
        for kind, count in other.failed.items():
            self.failed[kind] += count
        self.tuples += other.tuples

    @property
    def ops(self) -> int:
        return sum(self.attempted.values()) - sum(self.failed.values())


class Run:
    """Owns a run's hosts, scratch directory and accounting."""

    def __init__(self, seed: int, seconds: float, tracing: bool,
                 limit_s: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracing = tracing
        self.hosts: List[Host] = []
        base = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=base)
        self.setup_s: List[float] = []
        self.start_s: List[float] = []
        self.tally = Tally()
        self.wall = 0.0  # seconds of timed phases
        #: One record per timed phase (``ops``, ``tuples``, ``wall_s``,
        #: ``p50_s``, ``cpu_s``, ``stolen``): the end-to-end figures are
        #: medians over phases, so one phase that the host slowed down
        #: does not move them.
        self.phases: List[Dict[str, float]] = []
        self.rss_mb: List[float] = []
        self.sse: Optional[float] = None
        self.checks: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, Dict[str, dict]] = {}
        self.engine = {"cache_hits": 0, "cache_misses": 0}
        self.greedy_tuples = 0  # input tuples of in-process greedy jobs
        #: Machine CPU ticks stolen by the hypervisor during the timed
        #: phases, and all ticks: a slow run on a shared host shows here.
        self.stolen = [0, 0]
        self._marks: Dict[int, float] = {}
        self._engine_marks: Dict[int, dict] = {}
        self._watchdog = threading.Timer(limit_s, self._overstay)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _overstay(self) -> None:
        sys.stderr.write("perfbench: run exceeded its time limit\n")
        self.close()
        os._exit(3)

    def host(self, cpus: Optional[List[int]] = None) -> Host:
        host = Host(self.tracing, cpus)
        self.hosts.append(host)
        self.start_s.append(host.start_s)
        return host

    def release(self, *hosts: Host) -> None:
        for host in hosts:
            host.close()
            self.hosts.remove(host)

    def begin(self, roles: Dict[str, Host]) -> None:
        """Mark the start of a timed phase on each program process."""
        for role, host in roles.items():
            self._marks[id(host)] = host.call("usage")["cpu_s"]
            self._collect("setup." + role, host)

    def end(self, roles: Dict[str, Host]) -> None:
        """Close a timed phase: CPU, peak memory, spans, cache counters."""
        peak = 0.0
        for role, host in roles.items():
            usage = host.call("usage")
            self.phases[-1]["cpu_s"] += (usage["cpu_s"]
                                         - self._marks.pop(id(host)))
            peak = max(peak, usage["rss_mb"])
            self._collect(role, host)
        self.rss_mb.append(peak)

    def _collect(self, phase: str, host: Host) -> None:
        reply = host.call("spans")
        into = self.spans.setdefault(phase, {})
        for name, row in reply["spans"].items():
            mine = into.setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                mine[field] += value
        before = self._engine_marks.pop(id(host), None)
        if before is None:
            self._engine_marks[id(host)] = reply["engine"]
        else:
            for field in self.engine:
                self.engine[field] += (reply["engine"].get(field, 0)
                                       - before.get(field, 0))

    def _steal(self) -> Optional[Tuple[int, int]]:
        """(stolen, total) CPU ticks of the machine so far, where the
        kernel reports them (Linux ``/proc/stat``)."""
        try:
            with open("/proc/stat") as handle:
                fields = [int(x) for x in handle.readline().split()[1:]]
        except (OSError, ValueError):
            return None
        return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])

    def timed(self, lane: Callable[[Tally, int, int], None],
              lanes: int = 1) -> None:
        """Closed loop: each of ``lanes`` clients runs whole rounds
        (``lane(tally, client, round)``) until this phase's share of
        the run is spent."""
        budget = self.seconds / REPS
        tallies = [Tally() for _ in range(lanes)]
        errors: List[BaseException] = []
        ticks = self._steal()
        start = time.perf_counter()

        def client(index: int) -> None:
            try:
                number = 0
                while True:
                    lane(tallies[index], index, number)
                    number += 1
                    if time.perf_counter() - start >= budget:
                        return
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(index,),
                                    daemon=True)
                   for index in range(lanes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        self.wall += wall
        after = self._steal()
        stolen = [0, 0]
        if ticks and after:
            stolen = [after[0] - ticks[0], after[1] - ticks[1]]
            self.stolen[0] += stolen[0]
            self.stolen[1] += stolen[1]
        phase = Tally()
        for tally in tallies:
            phase.merge(tally)
        latencies = [x for values in phase.latency.values() for x in values]
        self.phases.append({
            "ops": phase.ops, "tuples": phase.tuples, "wall_s": wall,
            "p50_s": statistics.median(latencies) if latencies else 0.0,
            "cpu_s": 0.0, "stolen": stolen[0] / max(stolen[1], 1)})
        self.tally.merge(phase)
        if errors:
            raise errors[0]

    def scratch(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def close(self) -> None:
        self._watchdog.cancel()
        for host in list(self.hosts):
            try:
                host.close()
            except Exception:  # noqa: BLE001 — keep cleaning up
                pass
        self.hosts.clear()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass
