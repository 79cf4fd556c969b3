import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker, shared_memory

import pytest

import perfbench.children as children

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")


def test_child_process_ignoring_sigterm_is_killed_and_reaped(monkeypatch):
    monkeypatch.setattr(children, "GRACE_SECONDS", 0.2)
    stubborn = subprocess.Popen(
        [sys.executable, "-c", "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)"]
    )
    time.sleep(0.3)
    assert stubborn.pid in children.live_children()
    assert stubborn.pid in children.stop_children()
    assert stubborn.pid not in children.live_children()


def test_resource_tracker_is_stopped_and_not_reported():
    segment = shared_memory.SharedMemory(create=True, size=64)
    try:
        segment.buf[0] = 1
    finally:
        segment.close()
        segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker in children.live_children()
    assert tracker not in children.stop_children()
    assert tracker not in children.live_children()


def test_child_setup_restores_sigint_in_children_of_a_background_run():
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        completed = subprocess.run(
            [sys.executable, "-c", "import signal; print(signal.getsignal(signal.SIGINT) is signal.default_int_handler)"],
            capture_output=True, text=True, timeout=60, preexec_fn=children.child_setup,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    assert completed.stdout.strip() == "True"
