import pytest

from repro import mine_correlations
from repro.core.correlation import CorrelationTest
from repro.data.basket import BasketDatabase
from repro.data.parity import generate_parity_data
from repro.data.quest import QuestParameters, generate_quest
from repro.measures.cellsupport import CellSupport

from perfbench.cascade import compare_backends, level_counters, replay_cascade
from perfbench.spans import SpanRecorder


def _quest(seed):
    rows = list(generate_quest(QuestParameters(n_transactions=500, n_items=30, seed=seed)))
    return BasketDatabase.from_id_baskets(rows, n_items=30), 3


def _parity(seed):
    rows = list(generate_parity_data(3000, (3, 3, 4), noise_items=4, seed=seed))
    return BasketDatabase.from_id_baskets(rows, n_items=14), 4


@pytest.mark.parametrize("make", [_quest, _parity])
@pytest.mark.parametrize("seed", [7, 1997])
def test_replay_equals_mine(make, seed):
    db, max_level = make(seed)
    result = mine_correlations(db, support_count=5, support_fraction=0.3, max_level=max_level)
    recorder = SpanRecorder("test")
    replay = replay_cascade(
        db, CellSupport(count=5, fraction=0.3), CorrelationTest(0.95), max_level, recorder, keep_cells=True
    )
    assert replay.sig == {rule.itemset for rule in result.rules}
    assert replay.notsig == set(result.supported_uncorrelated)
    assert replay.levels == level_counters(result.level_stats)
    assert replay.counts["rules"] == len(result.rules)
    self_times = recorder.self_times()
    for layer in ("seed", "count", "decide.support", "decide.chi2", "join"):
        assert self_times[layer] > 0.0
    # Layer self times never exceed the replay's wall time.
    assert sum(self_times[k] for k in sorted(self_times) if k != "replay") <= recorder.total("replay")


def test_backends_agree_with_the_default_path():
    db, max_level = _quest(7)
    recorder = SpanRecorder("test")
    replay = replay_cascade(
        db, CellSupport(count=5, fraction=0.3), CorrelationTest(0.95), max_level, recorder, keep_cells=True
    )
    figures, problems = compare_backends(db, replay, workers=2, recorder=recorder)
    assert problems == []
    for name in ("count.vectorized_s", "count.fptree_s", "count.parallel_s", "count.parallel_setup_s"):
        assert figures[name] > 0.0
    dispatched = sum(figures[k] for k in sorted(figures) if k.startswith("kernels.dispatch."))
    assert dispatched == sum(len(replay.candidates[level]) for level in sorted(replay.candidates))


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    recorder = SpanRecorder("t", clock=lambda: next(ticks))
    with recorder.span("outer"):
        with recorder.span("a"):
            pass
        with recorder.span("a"):
            pass
    assert recorder.self_times() == {"outer": 6.0, "a": 4.0}
    assert recorder.durations("a") == [2.0, 2.0]
