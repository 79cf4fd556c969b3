"""The benchmark's workloads: generated inputs plus how each run spends its time.

Every workload runs the same pipeline — set-ups, mines, and a live
service session against ``repro serve`` — so every run reports every
metric.  Workloads differ in their mining depth and in how the run's
seconds are split, which decides the layers they stress.  The seed only
drives the basket sample; the program receives the generated baskets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "MineParams",
    "Workload",
    "WORKLOADS",
    "SERVICE_PARAMS",
    "SIGNIFICANCE",
    "N_ITEMS",
    "BASE_ROWS",
    "BATCH_SIZE",
    "quest_rows",
]

N_ITEMS = 80
# Baskets in the mined and served database; the rest of a run's sample
# is the held-out append stream.
BASE_ROWS = 4000
BATCH_SIZE = 20
# Quest baskets are sampled from one fixed generated pool, so the seed
# varies the baskets but not the pattern pool behind them: a fresh pool
# per seed moves the candidate count by ~6% and the mine time with it.
QUEST_POOL = (12_000, 1997)
# Every mine, the served one included, tests at the 95% level.
SIGNIFICANCE = 0.95


def quest_rows(seed: int, n_rows: int) -> list[tuple[int, ...]]:
    """``n_rows`` baskets sampled by ``seed`` from the fixed Quest pool."""
    from repro.data.quest import QuestParameters, generate_quest

    size, pool_seed = QUEST_POOL
    pool = list(generate_quest(QuestParameters(n_transactions=size, n_items=N_ITEMS, seed=pool_seed)))
    return random.Random(seed).sample(pool, n_rows)


@dataclass(frozen=True)
class MineParams:
    """Mining parameters, for ``mine_correlations`` and for ``repro serve``."""

    support_count: float
    support_fraction: float
    max_level: int


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        mine: parameters of the timed ``mine_correlations`` runs.
        focus: ``"batch"`` reports the set-up of a database ready to mine
            and the peak memory of a child process that only builds the
            database and mines it once; ``"service"`` reports the
            server's spawn-to-healthy set-up (backfill included) and the
            server's peak memory.
        session_share: fraction of ``--seconds`` given to the session.
        interval: seconds between append due times (open loop).
    """

    name: str
    mine: MineParams
    focus: str
    session_share: float
    interval: float


# What ``repro serve`` is started with, on every workload.
SERVICE_PARAMS = MineParams(support_count=5, support_fraction=0.3, max_level=2)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="quest-deep",
            mine=MineParams(support_count=5, support_fraction=0.3, max_level=3),
            focus="batch",
            session_share=0.5,
            interval=0.4,
        ),
        Workload(
            name="service-mix",
            mine=MineParams(support_count=5, support_fraction=0.3, max_level=2),
            focus="service",
            session_share=0.8,
            interval=0.3,
        ),
    )
}
