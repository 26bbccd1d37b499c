"""Fresh-process helpers of the in-process workloads.

``python3 perfbench/child.py setup <workload> <seed>``
    Prints the seconds a new process spends before its first update:
    native-kernel load plus self-check, and sketch construction (the
    fastest of several, each as costly as the first).
``python3 perfbench/child.py reference engine_turnstile <seed> <slice>``
    Prints the reference digests the turnstile certificate checks against.
    The caller runs it with ``REPRO_NATIVE_KERNELS=0`` (the numpy tier);
    SIS-L0 is also checked on ``<slice>`` in its exact sparse mode.
"""

from __future__ import annotations

import json
import sys
import time

import harness


#: Sketch constructions timed per process; the fastest counts.
BUILDS = 5


def setup_seconds(workload: str, seed: int) -> float:
    """Native-kernel load (once per process) plus the fastest construction."""
    import inputs
    from repro.core import kernels

    build = {
        "engine_turnstile": lambda: inputs.turnstile_sketches(seed),
        "adaptive_game": inputs.game_parts,
    }.get(workload)
    if build is None:
        raise SystemExit(f"no in-process setup for workload {workload!r}")
    start = time.perf_counter()
    kernels.native_kernels_available()
    load = time.perf_counter() - start
    builds = []
    for _ in range(BUILDS):
        start = time.perf_counter()
        build()
        builds.append(time.perf_counter() - start)
    return load + min(builds)


def turnstile_reference(seed: int, exact_slice: int) -> dict:
    """Per slice: state digests, and answer digests for both probe sets."""
    import inputs
    from repro.api import StreamEngine

    items, deltas = inputs.turnstile_pool(seed)
    probe = inputs.bulk_probe(seed)
    engine = StreamEngine()
    slices = []
    for index in range(inputs.SLICES):
        sketches = inputs.turnstile_sketches(seed)
        engine.drive_arrays(sketches, *inputs.slice_of(items, deltas, index))
        count_min, count_sketch, _ = sketches
        slices.append({
            "state": [inputs.digest(s.snapshot()) for s in sketches],
            "estimates": [
                inputs.digest(s.estimate_batch(probe)) for s in (count_min, count_sketch)
            ],
            "reads": [
                inputs.digest(s.estimate_batch(probe[: inputs.READ_PROBES]))
                for s in (count_min, count_sketch)
            ],
        })
    exact = inputs.turnstile_sketches(seed, exact_sis=True)[2]
    engine.drive_arrays(exact, *inputs.slice_of(items, deltas, exact_slice))
    return {"slices": slices, "sis_exact": inputs.sis_digest(exact)}


def main(argv: list[str]) -> int:
    if not harness.use_checkout_sources():
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(repr(setup_seconds(workload, seed)))
    elif mode == "reference" and workload == "engine_turnstile":
        print(json.dumps(turnstile_reference(seed, int(argv[3]))))
    else:
        print(f"perfbench: unknown child mode {argv[:2]}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
