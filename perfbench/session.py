"""The live-service session: ``repro serve`` in its own process, under load.

Load comes from this process over two keep-alive connections:

* ingest, open loop — one ``POST /append`` of a fixed-size basket batch
  per tick of a fixed schedule, timed from its due time;
* reads, closed loop — ``POST /query/itemset`` over random item pairs
  (90%) and ``GET /query/significant?limit=20`` (10%).

After each block of load one ``GET /query/topk`` is timed on its own: the
block's appends made a new generation, so every top-K includes the
service's per-generation FP-tree build.  Top-K requests take several
times longer than an append, so mixed into the read loop they would put
a knee into the append and read percentiles.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from perfbench.children import child_setup
from perfbench.spans import SpanRecorder
from perfbench.workloads import SERVICE_PARAMS, SIGNIFICANCE, MineParams

__all__ = ["ServerProcess", "Session", "replay_stream"]

_SERVING = re.compile(r"serving on http://([0-9.]+):([0-9]+)")
# The in-process replay covers this many of the session's appends, and
# this many of the itemset reads issued at each generation.
REPLAY_APPENDS = 40
REPLAY_READS = 5
# Seconds a server may take from spawn to its first good /healthz.
START_TIMEOUT = 120.0
# /healthz round trips timed after the load.
PINGS = 20


class ServerProcess:
    """One ``python -m repro serve`` child with a scratch working directory.

    Always use as a context manager (or call :meth:`stop`): the child is
    signalled, waited for and, if it does not exit, killed and reaped.
    """

    def __init__(
        self, root: Path, workdir: Path, backfill: Path, params: MineParams, tag: str
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.backfill = backfill
        self.params = params
        self.tag = tag
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.peak_rss_mb: float | None = None
        self.returncode: int | None = None
        self._log = workdir / f"{tag}.log"

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self, clock: Callable[[], float]) -> float:
        """Spawn and wait for the first good ``/healthz``; return seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        command = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0",
            "--flight-dump", "",
            "--backfill", str(self.backfill),
            "--numeric",
            "--significance", str(SIGNIFICANCE),
            "--support-count", str(self.params.support_count),
            "--support-fraction", str(self.params.support_fraction),
            "--max-level", str(self.params.max_level),
        ]
        started = clock()
        with open(self._log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=child_setup,
            )
        deadline = started + START_TIMEOUT
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self.log_tail()}")
            if self.address is None:
                match = _SERVING.search(self._log.read_text(encoding="utf-8"))
                if match:
                    self.address = (match.group(1), int(match.group(2)))
            if self.address is not None:
                client = Client(self.address, clock)
                try:
                    status, _, _, _ = client.call("GET", "/healthz")
                finally:
                    client.close()
                if status == 200:
                    return clock() - started
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy after {START_TIMEOUT}s: {self.log_tail()}")

    def log_tail(self) -> str:
        return self._log.read_text(encoding="utf-8")[-2000:] if self._log.exists() else ""

    def stop(self) -> None:
        """Record peak RSS, then stop and reap the child."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            self.peak_rss_mb = _peak_rss_mb(proc.pid)
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
        self.returncode = proc.returncode


def _peak_rss_mb(pid: int) -> float | None:
    """``VmHWM`` of a live process in MiB (Linux ``/proc``), else ``None``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class Client:
    """One keep-alive connection; a failed call reconnects on the next."""

    def __init__(self, address: tuple[str, int], clock: Callable[[], float]) -> None:
        self.address = address
        self.clock = clock
        self.conn = http.client.HTTPConnection(*address, timeout=120)

    def call(self, method: str, path: str, body: object = None) -> tuple[int, bytes, float, float]:
        """``(status, payload, sent, done)``; status 0 on a transport error."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        sent = self.clock()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            status, payload = 0, b""
        return status, payload, sent, self.clock()

    def close(self) -> None:
        self.conn.close()


class Session:
    """Load on one server, driven in blocks; the record spans every block.

    ``batches`` is the append stream, consumed in order across blocks.
    Each block restarts the append schedule at its own start.
    """

    def __init__(
        self,
        address: tuple[str, int],
        batches: Sequence[list[list[int]]],
        n_items: int,
        interval: float,
        rng: random.Random,
        clock: Callable[[], float],
    ) -> None:
        self.address = address
        self.batches = batches
        self.n_items = n_items
        self.interval = interval
        self.rng = rng
        self.clock = clock
        self.appends: list[dict] = []
        self.reads: list[dict] = []
        self.topks: list[dict] = []
        self.probes: dict[str, tuple[int, bytes]] = {}
        self.rtt: list[float] = []
        self.seconds = 0.0
        self._next_batch = 0

    def requests(self) -> list[dict]:
        return self.appends + self.reads + self.topks

    def run(self, seconds: float) -> None:
        """One block: open-loop appends and closed-loop reads for ``seconds``."""
        clock = self.clock
        stop = threading.Event()
        begin = clock() + 0.05
        end = begin + seconds
        first = self._next_batch

        def ingest() -> None:
            client = Client(self.address, clock)
            index = first
            try:
                while index < len(self.batches):
                    due = begin + (index - first) * self.interval
                    if due >= end or stop.wait(max(0.0, due - clock())):
                        break
                    status, payload, sent, done = client.call(
                        "POST", "/append", {"baskets": self.batches[index], "numeric": True}
                    )
                    self.appends.append(
                        {"kind": "append", "status": status, "payload": payload, "due": due,
                         "sent": sent, "done": done, "batch": index}
                    )
                    index += 1
            finally:
                self._next_batch = index
                client.close()

        writer = threading.Thread(target=ingest, name="perfbench-ingest")
        writer.start()
        reader = Client(self.address, clock)
        try:
            while clock() < begin:
                time.sleep(0.001)
            while clock() < end:
                if self.rng.random() < 0.1:
                    record = self._read(reader, "significant", "GET", "/query/significant?limit=20")
                else:
                    items = sorted(self.rng.sample(range(self.n_items), 2))
                    record = self._read(reader, "itemset", "POST", "/query/itemset", {"items": items})
                    record["items"] = items
                self.reads.append(record)
            self.seconds += clock() - begin
        finally:
            stop.set()
            writer.join(timeout=180)
            reader.close()
        if writer.is_alive():
            raise RuntimeError("ingest connection did not finish")

    @staticmethod
    def _read(client: Client, kind: str, method: str, path: str, body: object = None) -> dict:
        status, payload, sent, done = client.call(method, path, body)
        return {"kind": kind, "status": status, "payload": payload, "sent": sent, "done": done}

    def topk(self) -> None:
        """One timed ``GET /query/topk?k=20``."""
        client = Client(self.address, self.clock)
        try:
            self.topks.append(self._read(client, "topk", "GET", "/query/topk?k=20"))
        finally:
            client.close()

    def probe(self) -> None:
        """After the load: ``/status``, the full significant set, ``/healthz`` RTTs."""
        client = Client(self.address, self.clock)
        try:
            for path in ("/status", "/query/significant?limit=1000000"):
                status, payload, _, _ = client.call("GET", path)
                self.probes[path] = (status, payload)
            for _ in range(PINGS):
                status, _, sent, done = client.call("GET", "/healthz")
                if status == 200:
                    self.rtt.append(done - sent)
        finally:
            client.close()


class _TimedMiner:
    """Forwards to an ``IncrementalMiner``, with a span around each ``append``."""

    def __init__(self, miner: object, recorder: SpanRecorder) -> None:
        self._miner = miner
        self._recorder = recorder

    def append(self, *args: object, **kwargs: object) -> object:
        with self._recorder.span("mining.append"):
            return self._miner.append(*args, **kwargs)  # type: ignore[attr-defined]

    def __getattr__(self, name: str) -> object:
        return getattr(self._miner, name)


def replay_stream(
    base: Sequence[Sequence[int]],
    batches: Sequence[list[list[int]]],
    reads_by_generation: dict[int, list[list[int]]],
    recorder: SpanRecorder,
) -> None:
    """Replay the session's stream against an in-process ``MiningService``.

    Spans cover ``MiningService.append`` and, through a forwarding
    wrapper, the ``IncrementalMiner.append`` inside it; itemset reads
    issued at each generation are replayed after its append.  Finally
    the FP-tree engine is built and queried on the grown database.
    """
    from repro.fptree import FPTreePairEngine
    from repro.service import MiningService

    service = MiningService(
        support_count=SERVICE_PARAMS.support_count,
        support_fraction=SERVICE_PARAMS.support_fraction,
        max_level=SERVICE_PARAMS.max_level,
    )
    service.append([list(row) for row in base], numeric=True)
    service.miner = _TimedMiner(service.miner, recorder)  # type: ignore[assignment]
    for batch in batches[:REPLAY_APPENDS]:
        with recorder.span("service.append"):
            outcome = service.append(batch, numeric=True)
        for items in reads_by_generation.get(int(outcome["generation"]), [])[:REPLAY_READS]:
            with recorder.span("service.itemset"):
                service.correlation(items)
    with recorder.span("fptree.build"):
        engine = FPTreePairEngine(service.miner.db)
    try:
        with recorder.span("fptree.topk"):
            engine.top_k(20)
    finally:
        engine.close()
