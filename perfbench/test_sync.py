"""Self-test of the benchmark's thread synchronisation:
``python3 -m pytest perfbench/test_sync.py``.

Kept beside the benchmark rather than under ``tests/`` or ``benchmarks/``,
so the tier-1 suite stays as it is.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

assert harness.use_checkout_sources()

from wire import Gate  # noqa: E402

THREADS = 6
ROUNDS = 2000


def _stress(body) -> None:
    """Run ``body(index)`` on more threads than cores, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=body, args=(index,)) for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


def test_run_counts_every_attempt_from_many_threads():
    run = harness.Run(seed=0, seconds=1.0, trace=False)

    def body(index: int) -> None:
        for k in range(ROUNDS):
            run.attempt(k % 100 != index, f"thread {index}")

    _stress(body)
    assert run.attempted == THREADS * ROUNDS
    assert run.failed == THREADS * (ROUNDS // 100)


def test_gate_solo_sections_exclude_every_other_section():
    gate = Gate()
    lock = threading.Lock()
    active = {"shared": 0, "solo": 0}
    violations: list[dict] = []

    def enter(kind: str) -> None:
        with lock:
            active[kind] += 1
            if active["solo"] > 1 or (active["solo"] and active["shared"]):
                violations.append(dict(active))

    def leave(kind: str) -> None:
        with lock:
            active[kind] -= 1

    def body(index: int) -> None:
        for k in range(ROUNDS // 4):
            kind = "solo" if (k + index) % 3 == 0 else "shared"
            with gate.solo() if kind == "solo" else gate.shared():
                enter(kind)
                leave(kind)

    _stress(body)
    assert not violations
    assert active == {"shared": 0, "solo": 0}
