import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import perfbench.run as run
from perfbench.session import PINGS, Client, ServerProcess, Session
from perfbench.workloads import MineParams

ROOT = Path(__file__).resolve().parents[2]
PARAMS = MineParams(support_count=2, support_fraction=0.3, max_level=2)
CLOCK = time.perf_counter


def _backfill(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return path


def test_failed_server_is_reaped_and_reported(tmp_path):
    backfill = _backfill(tmp_path / "bad.dat", ["1 2", "not a number"])
    with pytest.raises(RuntimeError, match="server exited"):
        with ServerProcess(ROOT, tmp_path, backfill, PARAMS, "bad") as server:
            server.start(CLOCK)
    assert server.proc is None
    assert server.returncode not in (None, 0)


def test_session_against_a_live_server(tmp_path):
    rng = random.Random(5)
    rows = [" ".join(map(str, sorted(rng.sample(range(6), 3)))) for _ in range(200)]
    backfill = _backfill(tmp_path / "base.dat", rows)
    batches = [[sorted(rng.sample(range(6), 2)) for _ in range(5)] for _ in range(10)]
    with ServerProcess(ROOT, tmp_path, backfill, PARAMS, "live") as server:
        assert server.start(CLOCK) > 0.0
        log = Session(server.address, batches, 6, 0.2, rng, CLOCK)
        log.run(0.6)
        log.topk()
        log.run(0.6)
        log.probe()
        client = Client(server.address, CLOCK)
        try:
            status, payload, _, _ = client.call("GET", "/status")
        finally:
            client.close()
    assert server.returncode is not None
    assert status == 200 and json.loads(payload)["n_baskets"] == 200 + 5 * len(log.appends)
    assert log.appends and log.reads and log.topks and len(log.rtt) == PINGS
    # The stream is consumed in order across blocks.
    assert [a["batch"] for a in log.appends] == list(range(len(log.appends)))
    assert all(request["status"] == 200 for request in log.requests())
    for request in log.appends:
        assert request["sent"] >= request["due"] and request["done"] >= request["sent"]


def test_failed_run_leaves_no_files(monkeypatch):
    before = sorted(p.relative_to(ROOT) for p in (ROOT / ".perfbench").rglob("*")) if (ROOT / ".perfbench").exists() else None

    def explode(workload, seed, seconds, trace, scratch):
        (scratch / "partial.dat").write_text("x", encoding="ascii")
        raise RuntimeError("injected failure")

    monkeypatch.setattr(run, "execute", explode)
    with pytest.raises(RuntimeError, match="injected"):
        run.main(["--workload", "quest-deep", "--seed", "1", "--seconds", "1"])
    after = sorted(p.relative_to(ROOT) for p in (ROOT / ".perfbench").rglob("*")) if (ROOT / ".perfbench").exists() else None
    assert after == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quest-deep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
