"""The in-process workloads: ``adaptive_game`` and ``engine_turnstile``.

Throughput comes from many fixed-size repetitions, each timed alone, and
is reported from the fastest (see :func:`harness.best`).  Every repetition
is certified: game repetitions must be won in full and replay identically;
turnstile repetitions must leave each sketch byte-identical to the numpy
reference tier (and SIS-L0's exact mode) computed in a child process after
the timed phases.
"""

from __future__ import annotations

import json
import time

import numpy as np

import harness
import inputs
from spans import SpanRecorder

from repro.api import StreamEngine, run_game
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch

#: Repetitions of each phase in a traced run (fixed, so span totals compare
#: across runs); sized to take a few seconds on a 2-vCPU host.
GAME_TRACE_REPS = 110
DRIVE_TRACE_REPS = 400
ESTIMATE_TRACE_REPS = 60
READ_TRACE_REPS = 2000

#: Fresh processes timed for ``setup_s``, spread over the timed phase.
SETUP_SAMPLES = 12


class SetupSampler:
    """``setup_s``: kernel load + construction in fresh processes.

    On a 2-vCPU VM a fresh process's start cost moved by a quarter between
    stretches of the host's speed lasting from seconds to minutes, so the
    samples are spread over the whole timed phase (taken between
    repetitions, never beside one) and ``setup_s`` is the fastest.
    """

    def __init__(self, run: harness.Run, workload: str) -> None:
        self.run = run
        self.workload = workload
        self.times: list[float] = []
        self.interval = run.seconds * 0.9 / SETUP_SAMPLES
        self.due = time.perf_counter()

    def sample(self) -> None:
        self.times.append(float(harness.run_child("setup", self.workload, self.run.seed)))

    def tick(self) -> None:
        """Between repetitions: take a sample if one is due."""
        if len(self.times) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.sample()
            self.due += self.interval

    def report(self) -> None:
        while len(self.times) < SETUP_SAMPLES:  # a slow host ended the phase early
            self.sample()
        self.run.metric("setup_s", harness.best(self.times), "s")


# -- adaptive_game --------------------------------------------------------


def adaptive_game(run: harness.Run) -> None:
    """e05's game, repeated; rounds/s from the fastest 200-round segments.

    A game validates every 200 rounds, which splits it into segments of
    equal work at equal positions.  ``ups`` divides the rounds of one game
    by the sum, over segment positions, of the fastest time seen at that
    position -- the game-shaped form of the fastest repetition.
    """
    probe = inputs.game_probe(run.seed)
    reference: dict = {}
    segments: list[list[float]] = []
    latencies: list[float] = []
    games: list = []

    def one_game(recorder=None) -> float:
        algorithm, adversary, truth, validator = inputs.game_parts()
        game = run_game
        marks: list[float] = []
        if recorder is not None:
            recorder.patch(adversary, "next_update", "game.adversary")
            recorder.patch(algorithm, "feed", "game.feed")
            recorder.patch(algorithm, "state_view", "game.state_view")
            recorder.patch(algorithm, "query", "game.query")
            recorder.patch(
                algorithm, "estimate_batch", "game.estimate",
                units=lambda args, result: len(args[0]),
            )
            recorder.patch(algorithm, "space_bits", "game.space")
            recorder.patch(truth, "ingest", "game.truth")
            recorder.patch(truth, "truth", "game.truth")
            game = recorder.wrap("game.loop", run_game)
        else:
            query, estimate = algorithm.query, algorithm.estimate_batch

            def marked_query():
                marks.append(time.perf_counter())
                return query()

            def timed_estimate(items):
                start = time.perf_counter()
                out = estimate(items)
                latencies.append(time.perf_counter() - start)
                return out

            algorithm.query = marked_query
            algorithm.estimate_batch = timed_estimate
        start = time.perf_counter()
        result = game(
            algorithm=algorithm,
            adversary=adversary,
            ground_truth=truth,
            validator=validator,
            max_rounds=inputs.GAME_ROUNDS,
            query_every=inputs.GAME_VALIDATE_EVERY,
            probe_items=probe,
        )
        end = time.perf_counter()
        if recorder is not None:
            recorder.unpatch()
        else:
            bounds = [start, *marks[:-1], end]
            segments.append([b - a for a, b in zip(bounds, bounds[1:])])
        games[:] = [algorithm]
        # Certificate: the algorithm wins every validated round of the full
        # game, and -- same seed, same coins -- replays the first game.
        estimates = np.stack(result.checkpoint_estimates)
        if not reference:
            reference.update(answer=result.final_answer, estimates=estimates)
        run.attempt(
            result.algorithm_won and result.rounds_played == inputs.GAME_ROUNDS,
            f"game lost or cut short: {result.rounds_played} rounds, "
            f"{result.total_failures} failures",
            count=inputs.GAME_ROUNDS,
        )
        run.attempt(
            result.final_answer == reference["answer"]
            and np.array_equal(estimates, reference["estimates"]),
            "game did not replay the first game",
            count=len(result.checkpoint_estimates),
        )
        return end - start

    one_game()  # warm-up: imports, first touch, allocator
    segments.clear()
    latencies.clear()
    if run.trace:
        recorder = SpanRecorder()
        window = harness.HostWindow(run)
        untraced, traced = [], []
        for _ in range(GAME_TRACE_REPS):  # interleaved: same host speed
            untraced.append(one_game())
            traced.append(one_game(recorder))
        window.close()
        spans = recorder.totals()
        names = ("adversary", "feed", "state_view", "query", "estimate", "space", "truth")
        rows = {
            f"game.{name}_s": harness.span_row(run, spans, f"game.{name}")[2]
            for name in names
        }
        rows["game.loop_self_s"] = harness.span_row(run, spans, "game.loop")[2]
        for name, value in rows.items():
            run.metric(name, value, "s")
        harness.report_trace(
            run, rows, "game.loop_self_s", sum(traced), traced, untraced
        )
        harness.report_reads(run, latencies)  # from the untraced games
        return

    setups = SetupSampler(run, "adaptive_game")
    probe_set = inputs.bulk_probe(run.seed, inputs.GAME_UNIVERSE)
    bulk: list[float] = []
    answers: list[np.ndarray] = []

    def game_then_bulk() -> float:
        """One game, then two large-probe ``estimate_batch`` calls on its
        final state (the same state every game: same seed, same coins), so
        the bulk calls sample the host across the whole run."""
        setups.tick()
        seconds = one_game()
        algorithm = games[0]
        # The class method: the game's latency stopwatch stays out of it.
        estimate = type(algorithm).estimate_batch.__get__(algorithm)
        for _ in range(2):
            start = time.perf_counter()
            answer = estimate(probe_set)
            bulk.append(time.perf_counter() - start)
            if not answers:
                answers.append(answer)
                scalar = [algorithm.estimate(int(item)) for item in probe_set[:512]]
                run.attempt(
                    np.array_equal(answer[:512], np.asarray(scalar, dtype=answer.dtype)),
                    "batched game estimates differ from the scalar path",
                )
            run.attempt(np.array_equal(answer, answers[0]), "game estimates changed")
        return seconds

    window = harness.HostWindow(run)
    harness.repeat_for(run.seconds * 0.9, game_then_bulk, min_reps=110)
    window.close()
    setups.report()
    fastest = [min(column) for column in zip(*segments)]
    run.metric("ups", inputs.GAME_ROUNDS / sum(fastest), "1/s")
    run.metric("probes_per_s", inputs.ESTIMATE_PROBES / harness.best(bulk), "1/s")
    harness.report_reads(run, latencies)
    run.metric("rss_mb", harness.own_peak_rss_mb(), "MB")
    run.diagnostics["repetitions"] = len(segments)


# -- engine_turnstile -----------------------------------------------------


def engine_turnstile(run: harness.Run) -> None:
    """Repetitions drive one slice from empty sketches; every second one is
    followed by a large-probe estimate on the state it left, so estimates
    sample the host across the whole run."""
    seed = run.seed
    items, deltas = inputs.turnstile_pool(seed)
    sketches = inputs.turnstile_sketches(seed)
    count_min, count_sketch, sis = sketches
    empty = [sketch.snapshot() for sketch in sketches]
    probe = inputs.bulk_probe(seed)
    read = np.ascontiguousarray(probe[: inputs.READ_PROBES])
    engine = StreamEngine()
    #: ``(slice, kind, digests)`` of every state and answer, certified below.
    seen: list[tuple[int, str, list[str]]] = []
    current = [0]

    def drive(index: int) -> float:
        for sketch, data in zip(sketches, empty):
            sketch.restore(data)
        current[0] = index % inputs.SLICES
        start = time.perf_counter()
        engine.drive_arrays(sketches, *inputs.slice_of(items, deltas, current[0]))
        seconds = time.perf_counter() - start
        seen.append((current[0], "state", [inputs.digest(s.snapshot()) for s in sketches]))
        return seconds

    def estimate(kind: str, probes: np.ndarray) -> float:
        start = time.perf_counter()
        answers = (count_min.estimate_batch(probes), count_sketch.estimate_batch(probes))
        seconds = time.perf_counter() - start
        seen.append((current[0], kind, [inputs.digest(a) for a in answers]))
        return seconds

    drive(0)  # warm-up: first touch of the pool, scratch and registers
    seen.clear()
    if run.trace:
        recorder = SpanRecorder()
        per_call = lambda args, result: len(args[1])  # noqa: E731

        def traced(fn, *args):
            recorder.patch(StreamEngine, "drive_arrays", "engine.drive")
            for cls, name in ((CountMinSketch, "count_min"), (CountSketch, "count_sketch")):
                recorder.patch(cls, "process_batch", f"{name}.feed", per_call)
                recorder.patch(cls, "estimate_batch", f"{name}.estimate", per_call)
            recorder.patch(SisL0Estimator, "process_batch", "sis_l0.feed", per_call)
            try:
                return fn(*args)
            finally:
                recorder.unpatch()

        window = harness.HostWindow(run)
        untraced, driven = [], []
        for index in range(DRIVE_TRACE_REPS):  # interleaved: same host speed
            untraced.append(drive(index))
            driven.append(traced(drive, index))
        estimated = [traced(estimate, "estimates", probe) for _ in range(ESTIMATE_TRACE_REPS)]
        reads = [traced(estimate, "reads", read) for _ in range(READ_TRACE_REPS)]
        window.close()
        spans = recorder.totals()
        # Every row in seconds for the accounting: a per-unit row covers its
        # span's self time over all units driven or probed.
        rows = {"engine.drive_self_s": harness.span_row(run, spans, "engine.drive")[2]}
        run.metric("engine.drive_self_s", rows["engine.drive_self_s"], "s")
        layers = [("count_min", "feed"), ("count_sketch", "feed"), ("sis_l0", "feed"),
                  ("count_min", "estimate"), ("count_sketch", "estimate")]
        for sketch, kind in layers:
            calls, total, own, units = harness.span_row(run, spans, f"{sketch}.{kind}")
            per_unit = own / max(units, 1) * 1e9
            run.metric(f"{sketch}.{kind}_ns", per_unit, "ns")
            rows[f"{sketch}.{kind}_ns"] = own
        harness.report_trace(
            run,
            rows,
            "engine.drive_self_s",
            sum(driven) + sum(estimated) + sum(reads),
            driven,
            untraced,
        )
        harness.report_reads(run, reads)
    else:
        setups = SetupSampler(run, "engine_turnstile")
        counter = iter(range(1 << 30))
        driven, estimated = [], []

        def repetition() -> float:
            setups.tick()
            index = next(counter)
            driven.append(drive(index))
            if index % 2:
                estimated.append(estimate("estimates", probe))
            return driven[-1]

        window = harness.HostWindow(run)
        harness.repeat_for(run.seconds * 0.9, repetition, min_reps=200)
        window.close()
        setups.report()
        run.metric("ups", inputs.SLICE / harness.best(driven), "1/s")
        run.metric(
            "probes_per_s", 2 * inputs.ESTIMATE_PROBES / harness.best(estimated), "1/s"
        )
        run.metric("rss_mb", harness.own_peak_rss_mb(), "MB")
        run.diagnostics["repetitions"] = len(driven)

    # Certificate, outside every timed region: the numpy tier (and SIS-L0's
    # exact mode) in a fresh process must agree with every state and answer.
    expected = json.loads(
        harness.run_child(
            "reference", "engine_turnstile", seed, current[0],
            env={"REPRO_NATIVE_KERNELS": "0"},
        )
    )
    for index, kind, digests in seen:
        run.attempt(
            digests == expected["slices"][index][kind],
            f"turnstile slice {index} {kind} differ from the numpy tier",
        )
    run.attempt(
        inputs.sis_digest(sis) == expected["sis_exact"], "SIS-L0 differs from exact mode"
    )
