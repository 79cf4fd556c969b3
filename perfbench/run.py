"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload quest-deep --seed 1997 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  The line before it carries host and run metadata.  Scratch files
live under ``.perfbench/`` in the repository and are removed at exit,
except the traced run's span file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


# Replay layers: (span name, metric name).
LAYER_SPANS = (
    ("seed", "seed.s"),
    ("count", "count.s"),
    ("decide.support", "decide.support_s"),
    ("decide.chi2", "decide.chi2_s"),
    ("materialize.pvalue", "materialize.pvalue_s"),
    ("materialize.validity", "materialize.validity_s"),
    ("materialize.rule", "materialize.rule_s"),
    ("join", "join.s"),
)

# Set-ups, mines, session blocks and top-K requests are interleaved in
# this many rounds, so a slow spell of the host lands on every metric's
# samples alike.
ROUNDS = 12
# Share of --seconds each round spends on repeated set-ups (at least one).
SETUP_SHARE = 0.005
# Traced runs replay the cascade, traced and untraced in turn, at least
# REPLAYS times and for at least REPLAY_SECONDS: a level-2 replay takes
# tens of milliseconds, too short for two samples to give a steady ratio.
REPLAYS = 2
REPLAY_SECONDS = 3.0


class Ledger:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str] | str | None = None) -> None:
        """One operation; it failed when it came with problems."""
        self.attempted += 1
        if isinstance(problems, str):
            problems = [problems]
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="ascii") as handle:
        for row in rows:
            handle.write(" ".join(map(str, row)))
            handle.write("\n")


def mine(db, params):
    """``mine_correlations`` of ``db`` with a workload's parameters."""
    from repro import mine_correlations

    from perfbench.workloads import SIGNIFICANCE

    return mine_correlations(
        db,
        significance=SIGNIFICANCE,
        support_count=params.support_count,
        support_fraction=params.support_fraction,
        max_level=params.max_level,
    )


def digest_of(result) -> str:
    """The border digest of a mine's SIG and NOTSIG sets."""
    from perfbench.oracle import border_digest

    return border_digest((r.itemset.items for r in result.rules), (s.items for s in result.supported_uncorrelated))


def _check_result(result, matrix, params) -> list[str]:
    from perfbench.oracle import check_mine

    sig = {
        rule.itemset.items: (rule.statistic, dict(rule.table.nonzero_counts())) for rule in result.rules
    }
    return check_mine(matrix, sig, [itemset.items for itemset in result.supported_uncorrelated], params)


def _check_session(log, generation_rows, cold, matrix, seed: int, ledger: Ledger) -> None:
    """Every request answered 2xx; answers agree with the oracle.

    ``cold`` is a mine of the accumulated baskets, checked by the batch
    oracle on ``matrix`` before the service's final significant set is
    compared with it.
    """
    from perfbench.oracle import cells_from_bits, check_topk, chi_squared, critical_value
    from perfbench.workloads import SERVICE_PARAMS, SIGNIFICANCE

    for request in log.requests():
        ledger.record(None if request["status"] == 200 else f"HTTP {request['status']} on a session request")
    ledger.record(_check_result(cold, matrix, SERVICE_PARAMS))
    status, payload = log.probes["/query/significant?limit=1000000"]
    problems = []
    if status != 200:
        problems.append(f"HTTP {status} on the final significant query")
    else:
        served = {tuple(rule["item_ids"]) for rule in json.loads(payload)["rules"]}
        expected = {rule.itemset.items for rule in cold.rules}
        if served != expected:
            problems.append(
                f"service SIG set differs from a cold mine: {len(served ^ expected)} itemsets "
                f"(service {len(served)}, cold {len(expected)})"
            )
    ledger.record(problems)

    rng = random.Random(seed + 1)
    itemset_reads = [r for r in log.reads if r["kind"] == "itemset" and r["status"] == 200]
    cutoff = critical_value(SIGNIFICANCE)
    for read in rng.sample(itemset_reads, min(200, len(itemset_reads))):
        body = json.loads(read["payload"])
        n_rows = generation_rows.get(body["generation"])
        if n_rows is None or body["n"] != n_rows:
            ledger.record(f"itemset read at generation {body['generation']}: n={body['n']}, expected {n_rows}")
            continue
        cells = matrix.cells([body["item_ids"]], n_rows)
        statistic = float(chi_squared(cells)[0])
        problems = []
        if cells_from_bits(body["cells"], 2) != cells[0].tolist():
            problems.append(f"itemset {body['item_ids']}: cells {body['cells']} != recount {cells[0].tolist()}")
        elif abs(body["chi_squared"] - statistic) > 1e-9 * max(1.0, statistic):
            problems.append(f"itemset {body['item_ids']}: chi2 {body['chi_squared']} != recount {statistic}")
        elif abs(statistic - cutoff) > 1e-9 * cutoff and body["correlated"] != (statistic >= cutoff):
            problems.append(f"itemset {body['item_ids']}: correlated={body['correlated']} at chi2 {statistic}")
        ledger.record(problems)

    good_topks = [t for t in log.topks if t["status"] == 200]
    for topk in good_topks[-2:]:
        body = json.loads(topk["payload"])
        n_rows = generation_rows.get(body["generation"])
        if n_rows is None or body["n_baskets"] != n_rows:
            ledger.record(f"top-K at generation {body['generation']}: n={body['n_baskets']}, expected {n_rows}")
            continue
        reported = [
            (tuple(sorted(int(str(name)[4:]) for name in entry["items"])), entry["chi2"])
            for entry in body["entries"]
        ]
        ledger.record(check_topk(matrix, n_rows, reported, body["k"]))


def _session_metrics(log) -> tuple[dict[str, float], dict[str, object]]:
    from perfbench.percentiles import median, percentile

    appends = [(a["done"] - a["due"]) * 1000.0 for a in log.appends]
    reads = [(r["done"] - r["sent"]) * 1000.0 for r in log.reads]
    topks = [(t["done"] - t["sent"]) * 1000.0 for t in log.topks]
    if not appends or not reads or not topks:
        raise RuntimeError(
            f"session too short: {len(appends)} appends, {len(reads)} reads, {len(topks)} top-K"
        )
    metrics = {
        "append_p50_ms": median(appends),
        "append_p75_ms": percentile(appends, 75),
        "read_p50_ms": median(reads),
        "read_p95_ms": percentile(reads, 95),
        "reads_per_s": len(reads) / log.seconds,
    }
    lateness = [(a["sent"] - a["due"]) * 1000.0 for a in log.appends]
    meta = {
        "appends": len(appends),
        "reads": len(reads),
        "topks": len(topks),
        "generator_lateness_p50_ms": median(lateness),
        "generator_lateness_max_ms": max(lateness),
    }
    return metrics, meta


def _service_layers(log, recorder) -> dict[str, float]:
    """Per-layer figures seen from the session and the in-process replay."""
    from perfbench.percentiles import median, read_wait

    served = recounted = 0
    for request in log.appends:
        if request["status"] == 200:
            body = json.loads(request["payload"])
            served += body["tables_served"]
            recounted += body["tables_recounted"]
    _, status_payload = log.probes["/status"]
    cache = json.loads(status_payload)["cache"]
    lookups = cache["hits"] + cache["misses"]
    blocked, wait = read_wait(
        [(r["sent"], r["done"]) for r in log.reads],
        [(a["sent"], a["done"]) for a in log.appends],
    )
    return {
        "http.rtt_ms": median(log.rtt) * 1000.0,
        "service.append_ms": median(recorder.durations("service.append")) * 1000.0,
        "mining.append_ms": median(recorder.durations("mining.append")) * 1000.0,
        "mining.tables_served": float(served),
        "mining.tables_recounted": float(recounted),
        "mining.served_ratio": served / (served + recounted) if served + recounted else 0.0,
        "service.itemset_ms": median(recorder.durations("service.itemset")) * 1000.0,
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.read_blocked_ratio": blocked,
        "service.read_wait_ms": wait * 1000.0,
        "fptree.build_ms": recorder.total("fptree.build") * 1000.0,
        "fptree.topk_ms": recorder.total("fptree.topk") * 1000.0,
    }


def _replay_layers(mine_db, params, result, mine_p50: float, trace_id: str, ledger: Ledger):
    """Traced replays of the mine, proved equal to it; per-layer medians.

    Each traced replay is followed by the same replay with spans that
    record nothing; ``trace.overhead_ratio`` is the ratio of their wall
    time medians.
    """
    from repro.core.correlation import CorrelationTest
    from repro.measures.cellsupport import CellSupport

    from perfbench.cascade import level_counters, replay_cascade
    from perfbench.percentiles import median
    from perfbench.spans import NULL_RECORDER, SpanRecorder
    from perfbench.workloads import SIGNIFICANCE

    support = CellSupport(count=params.support_count, fraction=params.support_fraction)
    test = CorrelationTest(significance=SIGNIFICANCE)
    clock = time.perf_counter
    recorders = []
    first = None
    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    deadline = clock() + REPLAY_SECONDS
    while len(recorders) < REPLAYS or clock() < deadline:
        round_index = len(recorders)
        recorder = SpanRecorder(f"{trace_id}/replay{round_index}")
        recorders.append(recorder)
        for kind, spans in (("traced", recorder), ("untraced", NULL_RECORDER)):
            gc.collect()
            start = clock()
            replay = replay_cascade(mine_db, support, test, params.max_level, spans, keep_cells=round_index == 0)
            walls[kind].append(clock() - start)
            if first is None:
                first = replay
            problems = []
            if replay.sig != {rule.itemset for rule in result.rules}:
                problems.append("replay SIG set differs from the mine's")
            if replay.notsig != set(result.supported_uncorrelated):
                problems.append("replay NOTSIG set differs from the mine's")
            if replay.levels != level_counters(result.level_stats):
                problems.append(f"replay level counters {replay.levels} != mine {level_counters(result.level_stats)}")
            ledger.record(problems)
    figures: dict[str, float] = {}
    self_times = [recorder.self_times() for recorder in recorders]
    for span, metric in LAYER_SPANS:
        figures[metric] = median([times.get(span, 0.0) for times in self_times])
    counts = first.counts
    figures["seed.pairs_kept"] = float(counts["pairs_kept"])
    figures["count.tables"] = float(counts["tables"])
    figures["decide.tests"] = float(counts["tests"])
    figures["decide.sig_ratio"] = counts["rules"] / counts["tests"] if counts["tests"] else 0.0
    figures["materialize.rules"] = float(counts["rules"])
    figures["join.generated"] = float(counts["generated"])
    figures["join.kept"] = float(counts["kept"])
    figures["join.yield"] = counts["kept"] / counts["generated"] if counts["generated"] else 0.0
    figures["replay.coverage"] = sum(figures[metric] for _, metric in LAYER_SPANS) / mine_p50
    figures["trace.overhead_ratio"] = median(walls["traced"]) / median(walls["untraced"])
    return figures, first, recorders


def _set_up(workload, base, backfill: Path, scratch: Path, index: int) -> float:
    """Seconds for one set-up: a database ready to mine, or a healthy server."""
    from repro.data.basket import BasketDatabase

    from perfbench.session import ServerProcess
    from perfbench.workloads import N_ITEMS, SERVICE_PARAMS

    clock = time.perf_counter
    if workload.focus == "service":
        with ServerProcess(ROOT, scratch, backfill, SERVICE_PARAMS, f"setup{index}") as server:
            return server.start(clock)
    gc.collect()
    start = clock()
    db = BasketDatabase.from_id_baskets(base, n_items=N_ITEMS)
    db.item_counts()
    db.packed_index()
    return clock() - start


def _peak_rss(workload, backfill: Path) -> tuple[float, str]:
    """``(peak RSS in MiB, border digest)`` of a child that only builds and mines."""
    from perfbench.children import child_setup

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.peak_rss", "--workload", workload.name, str(backfill)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=True,
        preexec_fn=child_setup,
    )
    answer = json.loads(completed.stdout.splitlines()[-1])
    return float(answer["peak_rss_mb"]), answer["digest"]


def timed_mine(db, params, clock) -> tuple[float, float, str]:
    """A probe reading, then one timed mine: ``(mine s, probe s, digest)``."""
    from perfbench.probe import probe

    probe_seconds = probe()
    gc.collect()
    start = clock()
    result = mine(db, params)
    seconds = clock() - start
    return seconds, probe_seconds, digest_of(result)


def execute(workload, seed: int, seconds: float, trace: bool, scratch: Path):
    """One run: returns ``(metrics, ledger, meta, span recorders)``."""
    import numpy

    from repro.data.basket import BasketDatabase

    from perfbench.oracle import BasketMatrix
    from perfbench.percentiles import median
    from perfbench.probe import adjusted, probe
    from perfbench.session import ServerProcess, Session, replay_stream
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import BASE_ROWS, BATCH_SIZE, N_ITEMS, SERVICE_PARAMS, quest_rows

    clock = time.perf_counter
    phases: dict[str, float] = {}
    phase_start = clock()

    def phase(name: str) -> None:
        nonlocal phase_start
        now = clock()
        phases[name] = phases.get(name, 0.0) + now - phase_start
        phase_start = now

    ledger = Ledger()
    recorder = SpanRecorder(f"{workload.name}-{seed}")
    session_seconds = seconds * workload.session_share
    mine_seconds = seconds - session_seconds
    n_batches = int(session_seconds / workload.interval) + ROUNDS
    rows = quest_rows(seed, BASE_ROWS + n_batches * BATCH_SIZE)
    base = rows[:BASE_ROWS]
    stream = rows[BASE_ROWS:]
    batches = [
        [list(row) for row in stream[i : i + BATCH_SIZE]]
        for i in range(0, len(stream), BATCH_SIZE)
    ]
    backfill = scratch / "backfill.dat"
    _write_rows(backfill, base)
    params = workload.mine

    db = BasketDatabase.from_id_baskets(base, n_items=N_ITEMS)
    db.item_counts()
    db.packed_index()
    phase("generate")
    warm = mine(db, params)
    ledger.record(_check_result(warm, BasketMatrix(base, N_ITEMS), params))
    digest = digest_of(warm)
    phase("oracle")
    if workload.focus == "batch":
        peak_rss, child_digest = _peak_rss(workload, backfill)
        ledger.record(None if child_digest == digest else "border digest of the peak-RSS mine differs")
        phase("peak_rss")

    setup_times: list[float] = []
    mine_times: list[float] = []
    mine_probes: list[float] = []
    topk_probes: list[float] = []
    with ServerProcess(ROOT, scratch, backfill, SERVICE_PARAMS, "session") as server:
        spawn = server.start(clock)
        if workload.focus == "service":
            setup_times.append(spawn)
        session = Session(
            server.address,
            batches,
            N_ITEMS,
            workload.interval,
            random.Random(seed * 7919 + 1),
            clock,
        )
        phase("session")
        for _ in range(ROUNDS):
            deadline = clock() + seconds * SETUP_SHARE
            while True:
                setup_times.append(_set_up(workload, base, backfill, scratch, len(setup_times)))
                if clock() >= deadline:
                    break
            phase("setup")
            deadline = clock() + mine_seconds / ROUNDS
            while True:
                mine_seconds_taken, probe_seconds, mine_digest = timed_mine(db, params, clock)
                mine_times.append(mine_seconds_taken)
                mine_probes.append(probe_seconds)
                ledger.record(None if mine_digest == digest else "border digest differs between mines of one run")
                # Stop before a mine that would overrun the round's share.
                if trace or clock() + mine_times[-1] > deadline:
                    break
            phase("mine")
            session.run(session_seconds / ROUNDS)
            topk_probes.append(probe())
            session.topk()
            phase("session")
        session.probe()
        server.stop()
    for request in session.requests():
        recorder.add(f"http.{request['kind']}", request["sent"], request["done"], status=request["status"])

    # The session oracle: a cold mine of what the service accumulated.
    generation_rows = {1: len(base)}
    accumulated = list(base)
    for request in session.appends:
        if request["status"] == 200:
            accumulated.extend(tuple(row) for row in batches[request["batch"]])
            generation_rows[json.loads(request["payload"])["generation"]] = len(accumulated)
    cold = mine(BasketDatabase.from_id_baskets(accumulated, n_items=N_ITEMS), SERVICE_PARAMS)
    _check_session(session, generation_rows, cold, BasketMatrix(accumulated, N_ITEMS), seed, ledger)
    phase("oracle")

    session_figures, session_meta = _session_metrics(session)
    if workload.focus == "service":
        peak_rss = server.peak_rss_mb
    end_to_end = {
        "setup_s": median(setup_times),
        "mine_p50_s": adjusted(mine_times, mine_probes),
        "peak_rss_mb": peak_rss,
        **session_figures,
        "topk_p50_ms": adjusted([t["done"] - t["sent"] for t in session.topks], topk_probes) * 1000.0,
    }
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "setup_samples": len(setup_times),
        "mines": len(mine_times),
        "mine_wall_p50_s": median(mine_times),
        "probe_p50_s": median(mine_probes + topk_probes),
        "topk_wall_p50_ms": median([t["done"] - t["sent"] for t in session.topks]) * 1000.0,
        "sig": len(warm.rules),
        "candidates": sum(s.candidates for s in warm.level_stats),
        **session_meta,
        "phase_seconds": phases,
    }
    recorders = [recorder]
    if not trace:
        return end_to_end, ledger, meta, recorders

    from perfbench.cascade import compare_backends

    figures: dict[str, float] = {}
    for _ in range(3):
        fresh = BasketDatabase.from_id_baskets(base, n_items=N_ITEMS)
        with recorder.span("data.index_build"):
            fresh.item_counts()
        with recorder.span("data.packed_index"):
            fresh.packed_index()
    figures["data.index_build_s"] = median(recorder.durations("data.index_build"))
    figures["data.packed_index_s"] = median(recorder.durations("data.packed_index"))

    replay_figures, replay, replay_recorders = _replay_layers(
        db, params, warm, meta["mine_wall_p50_s"], recorder.trace_id, ledger
    )
    figures.update(replay_figures)
    recorders.extend(replay_recorders)
    backend_figures, problems = compare_backends(db, replay, min(2, os.cpu_count() or 1), recorder)
    ledger.record(problems)
    figures.update(backend_figures)

    reads_by_generation: dict[int, list[list[int]]] = {}
    for read in session.reads:
        if read["kind"] == "itemset" and read["status"] == 200:
            generation = json.loads(read["payload"])["generation"]
            reads_by_generation.setdefault(generation, []).append(read["items"])
    replay_stream(
        base,
        [batches[a["batch"]] for a in session.appends if a["status"] == 200],
        reads_by_generation,
        recorder,
    )
    figures.update(_service_layers(session, recorder))
    phase("trace")
    return figures, ledger, meta, recorders


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Import the benchmark as the ``perfbench`` package, never as loose
    # modules from its own directory.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [path for path in sys.path if path != here]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    from perfbench.children import stop_children
    from perfbench.spans import write_spans
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench" / "tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        metrics, ledger, meta, recorders = execute(workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        for pid in stop_children():
            print(f"warning: stopped child process {pid} left running by the run", file=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)
        for directory in (scratch.parent, scratch.parent.parent):
            with contextlib.suppress(OSError):
                directory.rmdir()  # only when empty
    if args.trace:
        spans_path = ROOT / ".perfbench" / "traces" / f"{workload.name}-{args.seed}.json"
        write_spans(spans_path, recorders)
        meta["spans"] = str(spans_path.relative_to(ROOT))
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    meta["error_rate"] = ledger.failed / ledger.attempted
    for problem in ledger.problems[:20]:
        print(f"oracle: {problem}", file=sys.stderr)
    for name in sorted(units):
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    # A terminated run still stops its server: SystemExit unwinds through
    # the context managers that own the child process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
