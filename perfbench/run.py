"""Benchmark entry point: one run of one workload, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wire_mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics instead.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the run's diagnostics (host steal and CPU seconds, nproc,
the CPU the run is pinned to, versions, native tier, repetition counts).
Workloads, metrics and the layer -> metric predictions are listed in
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("wire_mixed", "adaptive_game", "engine_turnstile")


def per_layer_spec() -> list[dict]:
    with open(harness.CHECKOUT / "BENCHMARK.json") as spec:
        return json.load(spec)["per_layer"]


def loaded_layers(workload: str) -> set[str]:
    """The per-layer metrics ``workload`` must report (``layers.json``)."""
    with open(harness.BENCH_DIR / "layers.json") as layers:
        return set(json.load(layers)["workloads"][workload]["per_layer"])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.use_checkout_sources():
        print("perfbench: no src/repro in this checkout to measure", file=sys.stderr)
        return 2

    cpu = harness.pin_to_one_cpu()
    # Warm-up shared by every workload: build (first run in a checkout) or
    # load the native kernel tier and pass its self-check before any timing.
    facts = harness.host_facts()
    facts["pinned_cpu"] = cpu
    run = harness.Run(args.seed, args.seconds, bool(args.trace))
    if args.workload.startswith("wire"):
        import wire

        getattr(wire, args.workload)(run)
    else:
        import inproc

        getattr(inproc, args.workload)(run)

    run.diagnostics.update(facts)
    if run.trace:
        measured, run.metrics = run.metrics, {}
        loaded = loaded_layers(args.workload)
        for spec in per_layer_spec():
            name = spec["name"]
            # Host readings come from the diagnostics.  A layer this workload
            # loads must have been measured; one it never calls did no work.
            value = measured.get(name, {}).get("value", run.diagnostics.get(name))
            if name in loaded:
                run.attempt(value is not None, f"loaded layer {name} not measured")
            run.metric(name, value or 0.0, spec["unit"])
    if run.failures:
        run.diagnostics["failures"] = run.failures
    print(json.dumps({"diagnostics": run.diagnostics}))
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
