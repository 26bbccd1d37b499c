"""Workload inputs and sketch shapes, all derived from the run's seed.

Both the benchmark process and its reference/setup children build from
here, so the two sides of every certificate see the same streams and the
same sketch construction.  Import it only after
:func:`harness.use_checkout_sources`.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.adversaries.stress import SampleEvasionAdversary
from repro.core.game import frequency_truth
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISParams
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.heavyhitters.robust_l1 import RobustL1HeavyHitters
from repro.workloads.frequency import turnstile_arrays, zipf_arrays

#: Universe size of every stream.
N = 1_000_000
#: Updates per wire frame (``feed_chunks`` chunk), as in the service recorder.
FRAME = 1 << 16
#: Probes per read: one ``estimate`` call on every workload.
READ_PROBES = 256

# engine_turnstile: a pool of SLICES fixed-size slices; each repetition
# drives one slice from empty sketches.
SLICE = 1 << 16
SLICES = 16
ESTIMATE_PROBES = 1 << 16

# adaptive_game: e05's robust heavy-hitters game.
GAME_UNIVERSE = 1000
GAME_EPS = 0.1
GAME_ROUNDS = 2000
GAME_VALIDATE_EVERY = 200
GAME_SEED = 31


def digest(*parts) -> str:
    """Short hex digest of bytes / arrays, the certificates' currency."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else part)
    return h.hexdigest()[:32]


def sis_digest(sketch) -> str:
    """Digest of SIS-L0's observable registers, the same in either mode."""
    return digest(repr(sorted(sketch.sketches.items())).encode())


# -- wire workloads -------------------------------------------------------


def wire_factory(seed: int):
    """CountMin 4x64 over n = 10^6: the served sketch (one per shard)."""
    return functools.partial(CountMinSketch, N, width=64, depth=4, seed=seed)


def zipf_pool(seed: int, frames: int) -> tuple[np.ndarray, np.ndarray]:
    """``frames`` wire frames of a Zipf(1.1) insert-only stream."""
    return zipf_arrays(N, frames * FRAME, skew=1.1, seed=seed)


def read_probe(seed: int) -> np.ndarray:
    """256 probe items: the 64 heaviest Zipf ranks plus 192 random ones."""
    rng = np.random.default_rng(seed + 7)
    tail = rng.integers(64, N, size=READ_PROBES - 64, dtype=np.int64)
    return np.concatenate([np.arange(64, dtype=np.int64), tail])


# -- engine_turnstile -----------------------------------------------------


def turnstile_sketches(seed: int, exact_sis: bool = False) -> list:
    """CountMin, CountSketch and dense-tier SIS-L0 (q ~ 2^20), seeded."""
    params = SISParams(
        rows=8, cols=1000, modulus=next_prime(1 << 20), beta=1000.0 * N
    )
    return [
        CountMinSketch(N, width=64, depth=4, seed=seed),
        CountSketch(N, width=64, depth=4, seed=seed + 1),
        SisL0Estimator(N, params=params, seed=seed + 2, force_exact=exact_sis),
    ]


def turnstile_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """SLICES slices of a turnstile stream, deltas in [-8, 8] \\ {0}."""
    return turnstile_arrays(N, SLICES * SLICE, max_delta=8, seed=seed)


def slice_of(items: np.ndarray, deltas: np.ndarray, index: int):
    sl = slice(index * SLICE, (index + 1) * SLICE)
    return items[sl], deltas[sl]


def bulk_probe(seed: int, universe: int = N) -> np.ndarray:
    """The large probe set behind ``probes_per_s``."""
    rng = np.random.default_rng(seed + 11)
    return rng.integers(0, universe, size=ESTIMATE_PROBES, dtype=np.int64)


# -- adaptive_game ----------------------------------------------------------


def game_parts():
    """A fresh (algorithm, adversary, ground truth, validator) for one game.

    The algorithm keeps e05's seed on every run: its coins decide which
    items its summary holds, and the cost of a batched lookup depends on
    them (1.5x between seeds), so a run's seed varies only the probes.
    """
    algorithm = RobustL1HeavyHitters(
        universe_size=GAME_UNIVERSE, accuracy=GAME_EPS, seed=GAME_SEED
    )
    adversary = SampleEvasionAdversary(
        max_rounds=GAME_ROUNDS,
        universe_size=GAME_UNIVERSE,
    )
    truth = frequency_truth(
        universe_size=GAME_UNIVERSE,
        truth_of=lambda fv: fv.heavy_hitters(2 * GAME_EPS),
    )
    return algorithm, adversary, truth, _every_heavy_item_reported


def _every_heavy_item_reported(answer, heavy_truth) -> bool:
    """e05's validator: every (2 eps)-heavy item is in the candidate list."""
    return all(item in answer for item in heavy_truth)


def game_probe(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 13)
    return rng.integers(0, GAME_UNIVERSE, size=READ_PROBES, dtype=np.int64)
