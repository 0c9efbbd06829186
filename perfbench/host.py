"""Program host: runs the program under test in a process of its own.

The load generator starts one host per program process it needs (HTTP
server, standby, batch engine) and drives it over a JSON-lines control
channel: one command per line on stdin, one reply per line on the
original stdout (the program's own output is sent to stderr).  Set-up
work is timed here, inside the program process, so interpreter start
and imports never count as set-up.  The host exits when its stdin
closes, so it cannot outlive the load generator.

Run by ``run.py``; by hand::

    python3 perfbench/host.py --src src [--trace] [--cpus 1]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _segment_rows(segments: List[Any]) -> List[dict]:
    """``Result.segments`` in the ``/summary`` JSON segment shape."""
    return [{"group": list(s.group), "values": list(s.values),
             "start": s.interval.start, "end": s.interval.end}
            for s in segments]


class Host:
    def __init__(self) -> None:
        self.service: Any = None
        self.server: Any = None
        self.standby: Any = None
        self.links: List[Any] = []
        self.relations: Dict[str, list] = {}

    # -- service -------------------------------------------------------
    def serve(self, config: dict, keys: List[dict]) -> dict:
        """Build a Service (recovering ``data_dir`` if given), prefill
        ``keys`` through wire decode and store push, start HTTP."""
        from repro.service import Service, start_in_background
        from repro.service.wire import decode_segments

        payloads = _prefill_payloads(keys)
        start = time.perf_counter()
        self.service = Service(**config)
        for key, body in payloads:
            self.service.push(key, decode_segments(body))
        self.server, _ = start_in_background(self.service)
        return {"port": self.server.port,
                "setup_s": time.perf_counter() - start}

    def prepare(self, config: dict, keys: List[dict]) -> dict:
        """Write a data directory with the program itself (untimed)."""
        from repro.service import Service
        from repro.service.wire import decode_segments

        service = Service(**config)
        try:
            for key, body in _prefill_payloads(keys):
                service.push(key, decode_segments(body))
        finally:
            service.close()
        return {}

    def start_standby(self, config: dict) -> dict:
        from repro.cluster.replica import standby_store, start_standby

        store = standby_store(**config)
        self.standby, _ = start_standby(store)
        return {"address": self.standby.address}

    def attach(self, address: str) -> dict:
        """Attach a standby with a full catch-up (timed)."""
        from repro.cluster.replica import ReplicationLink

        link = ReplicationLink(address)
        start = time.perf_counter()
        link.attach(self.service.store)
        self.links.append(link)
        return {"setup_s": time.perf_counter() - start}

    def promote(self) -> dict:
        """Fail over to this standby and serve its store over HTTP."""
        from repro.service import Service, start_in_background

        store = self.standby.promote()
        self.service = Service(store=store)
        self.server, _ = start_in_background(self.service)
        return {"port": self.server.port}

    # -- batch ---------------------------------------------------------
    def batch_load(self, relations: Dict[str, List[dict]]) -> dict:
        """Load each relation from its wire form into segments (timed)."""
        from repro.service.wire import decode_segments

        payloads = {name: _prefill_payloads(keys)
                    for name, keys in relations.items()}
        start = time.perf_counter()
        for name, parts in payloads.items():
            segments: list = []
            for _, body in parts:
                segments.extend(decode_segments(body))
            self.relations[name] = segments
        return {"setup_s": time.perf_counter() - start}

    def batch_job(self, relation: str, budget: dict, policy: dict,
                  method: str = "greedy", rows: bool = False) -> dict:
        from repro.api import ErrorBudget, ExecutionPolicy, Plan, SizeBudget
        from repro.api import executor

        source = self.relations[relation]
        plan = Plan(source).reduce(
            SizeBudget(budget["size"]) if "size" in budget
            else ErrorBudget(budget["epsilon"])).with_method(method)
        start = time.perf_counter()
        result = executor.execute(plan, ExecutionPolicy(**policy))
        seconds = time.perf_counter() - start
        reply = {"seconds": seconds, "tuples": len(source),
                 "size": result.size, "error": result.error}
        if rows:
            reply["segments"] = _segment_rows(result.segments)
        return reply

    # -- accounting ----------------------------------------------------
    def usage(self) -> dict:
        return {"cpu_s": _cpu_s(), "rss_mb": _rss_mb()}

    def spans(self) -> dict:
        from layertrace import drain

        counters = (self.service.engine.counters()
                    if self.service is not None else {})
        return {"spans": drain(), "engine": counters}

    def close(self) -> None:
        for link in self.links:
            link.detach()
        for server in (self.server, self.standby):
            if server is not None:
                server.shutdown()
                server.server_close()
        if self.service is not None:
            self.service.close()


def _prefill_payloads(keys: List[dict]) -> List[tuple]:
    """``(key, PTAS bytes)`` per chunk of each key's seeded history."""
    from gen import history, pack_chunk

    return [(spec["name"], pack_chunk(chunk))
            for spec in keys for chunk in history(spec)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpus", help="comma-separated CPUs to run on")
    args = parser.parse_args(argv)
    if args.cpus:  # before the imports, so every thread inherits it
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    sys.path[:0] = [os.path.abspath(args.src), HERE]
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    import repro.service  # noqa: F401  (import cost stays out of set-up)
    import repro.cluster.replica  # noqa: F401
    import repro.api  # noqa: F401

    if args.trace:
        import layertrace

        layertrace.install()
    host = Host()
    channel.write(json.dumps({"ok": True, "pid": os.getpid()}) + "\n")
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "quit":
                break
            try:
                reply = getattr(host, op)(**command.get("args", {}))
                reply["ok"] = True
            except Exception:  # noqa: BLE001 — reported to the load generator
                reply = {"ok": False, "error": traceback.format_exc()}
            channel.write(json.dumps(reply) + "\n")
    finally:
        host.close()
        channel.write(json.dumps({"ok": True, "bye": True}) + "\n")
        channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
