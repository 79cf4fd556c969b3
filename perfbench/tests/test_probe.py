import gc
import threading
import time

from repro.data.basket import BasketDatabase
from repro.data.quest import QuestParameters, generate_quest

from perfbench.probe import adjusted, probe
from perfbench.run import timed_mine
from perfbench.workloads import MineParams

PARAMS = MineParams(support_count=5, support_fraction=0.3, max_level=3)


def _adjusted_mine(db, runs=5):
    samples = [timed_mine(db, PARAMS, time.perf_counter) for _ in range(runs)]
    return adjusted([s for s, _, _ in samples], [p for _, p, _ in samples])


def test_probe_leaves_gc_as_it_found_it():
    assert gc.isenabled()
    assert probe() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_spinning_thread_in_the_program_raises_the_adjusted_time():
    rows = list(generate_quest(QuestParameters(n_transactions=800, n_items=30, seed=11)))
    db = BasketDatabase.from_id_baskets(rows, n_items=30)
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            sum(range(1000))

    _adjusted_mine(db, runs=1)  # warm caches
    calm = _adjusted_mine(db)
    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        busy = _adjusted_mine(db)
    finally:
        stop.set()
        spinner.join()
    # The spinner holds the interpreter lock half the time: the mine's
    # wall time doubles, the probe's CPU time does not.
    assert busy > 1.3 * calm
