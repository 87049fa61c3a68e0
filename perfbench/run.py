"""Whole-``serve()`` benchmark of the OISA frame-serving engine.

Usage, from the repository root::

    python3 perfbench/run.py --workload mlp-steady --seed 0 --seconds 20 --trace 0

One process runs one workload in a closed loop: one ``serve()`` call
outstanding at a time, each call serving the workload's whole seeded
stream, whose frames arrive open-loop in simulated time at the
workload's offered rate.  Set-up (scenario, server, registration,
warmup, first untimed call) runs several times and reports its median;
after the last set-up, two more untimed calls form the digest window,
and the timed phase then repeats the call for ``--seconds``.

Each timed call sits between runs of a fixed reference burn of host
CPU, and host time is reported in units of that burn (``ref``): on a
shared host the speed of a core swings by up to ~1.5x for seconds at a
time, and the burn, timed right next to the call, swings with it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with every layer wrapped in timing spans
(``tracing.py``) and prints the per-layer metrics, the tracing overhead
and a check that the spans' self times add up to the traced calls.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every offered frame is one attempted operation; a frame fails when its
call raised, returned a malformed response set, or broke the digest or
steady-state checks.  Frames the engine chose not to deliver (drops,
sheds, expiries, chaos losses) are modelled outcomes reported in
``undelivered_frac``, not failures.

``--record`` serves set-up plus the digest window and stores the digest
for the seed in ``expected.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: One BLAS thread (<= nproc on any host): the load model is one
#: single-threaded process, and BLAS reductions split by thread count
#: would make output bytes, and so the digest, host-dependent.
BLAS_THREADS = "1"
#: Set-ups per run: at least ``SETUP_REPEATS``, and more until they add up
#: to ``SETUP_SECONDS``; ``setup_s`` is their median, so a set-up of
#: 0.1 s gets as steady a median as one of 2 s.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Seconds of one reference burn at the nominal host speed ``setup_s`` is
#: given in (the build host's fast regime took ~5.0 ms per burn).
NOMINAL_BURN_S = 0.005
#: Calls in the digest window, served untimed after the last set-up.
#: Kernel residency carries over between calls, so after set-up a
#: workload's simulated outcome settles into a cycle of one or two calls;
#: two calls cover the cycle.  On a few seeds the autoscaler programs one
#: last kernel in the call after the set-up's first; the window absorbs it.
WINDOW_CALLS = 2
#: Relative tolerance of the span accounting check (float summation only).
ACCOUNTING_RTOL = 1e-9
#: Reference burns timed for the host record's ``calibration_s``.
CALIBRATION_BURNS = 15
#: Burn time after each timed call, as a share of the call's time (at
#: least one burn), so that long calls get as steady a reference as
#: short ones.
BURN_SHARE = 0.1


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def reference_burn_s() -> float:
    """Host seconds of one fixed single-threaded CPU burn (~5 ms).

    Its mix follows a ``serve()`` call's: interpreted loops, dict
    updates and small NumPy kernels.  The burn's inputs are fixed, so it
    does the same work on every run and every commit of the engine.
    """
    import numpy as np

    started = time.perf_counter()
    total = 0
    for value in range(40_000):
        total += value * value % 7
    counts: dict[int, int] = {}
    for value in range(5_000):
        counts[value % 97] = counts.get(value % 97, 0) + 1
    matrix = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(10):
        matrix = np.tanh(matrix @ matrix.T / 64.0)
    return time.perf_counter() - started


def burn_after(call_s: float) -> float:
    """Mean seconds of the reference burns run right after a call that
    took ``call_s``: at least one, and ``BURN_SHARE`` of the call."""
    burns = [reference_burn_s()]
    while sum(burns) < BURN_SHARE * call_s:
        burns.append(reference_burn_s())
    return sum(burns) / len(burns)


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "calibration_s": statistics.median(
            reference_burn_s() for _ in range(CALIBRATION_BURNS)
        ),
        # Threads alive after the run: a burn shares its core with them.
        "threads": threading.active_count(),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _fate(response) -> tuple:
    event = response.event
    return (
        response.index,
        response.model_key,
        response.node_id,
        response.served_model,
        response.degraded,
        event.arrival_s,
        event.start_s,
        event.finish_s,
        event.dropped,
        event.remapped,
    )


def simulated_fingerprint(report) -> str:
    """sha256 of a report's placements, simulated events and energy."""
    digest = hashlib.sha256()
    for response in report.responses:
        digest.update(repr(_fate(response)).encode())
    digest.update(repr(report.stream.total_energy_j).encode())
    return digest.hexdigest()


def update_digest(digest, report) -> None:
    """Fold placements, events, output bytes and stream energy in."""
    import numpy as np

    for response in report.responses:
        digest.update(repr(_fate(response)).encode())
        if response.output is not None:
            output = np.ascontiguousarray(response.output, dtype=np.float64)
            digest.update(repr(output.shape).encode())
            digest.update(output.tobytes())
    digest.update(repr(report.stream.total_energy_j).encode())


def response_problems(requests, report) -> list[str]:
    """Every offered frame has one response; output iff delivered."""
    import numpy as np

    problems = []
    if len(report.responses) != len(requests):
        problems.append(
            f"{len(report.responses)} responses for {len(requests)} frames"
        )
    if report.stream.frames != len(requests):
        problems.append(
            f"stream holds {report.stream.frames} events for "
            f"{len(requests)} frames"
        )
    shapes: dict[str, tuple] = {}
    for index, (request, response) in enumerate(zip(requests, report.responses)):
        if response.index != index or response.model_key != request.model_key:
            problems.append(f"frame {index}: response is for another frame")
            continue
        delivered = not response.event.dropped
        if (response.output is not None) != delivered:
            problems.append(
                f"frame {index}: output present={response.output is not None} "
                f"but delivered={delivered}"
            )
            continue
        if response.output is None:
            continue
        output = np.asarray(response.output)
        if not np.all(np.isfinite(output)):
            problems.append(f"frame {index}: non-finite output")
        key = response.served_model or response.model_key
        if shapes.setdefault(key, output.shape) != output.shape:
            problems.append(f"frame {index}: output shape {output.shape}")
        if len(problems) > 5:
            break
    return problems


def load_expected() -> dict:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


# ----------------------------------------------------------------------
# Simulated metrics (identical on every call of a run)
# ----------------------------------------------------------------------
def _nearest_rank(values: list[float], fraction: float) -> float:
    from repro.sim.stream import nearest_rank_percentile

    return nearest_rank_percentile(values, fraction) if values else 0.0


def simulated_metrics(reports: list, admission) -> dict[str, float]:
    """Simulated outcomes of the window's calls: pooled over frames, and
    per call for the counts."""
    responses = [r for report in reports for r in report.responses]
    offered = len(responses)
    delivered = [r for r in responses if not r.event.dropped]
    latencies = [r.event.latency_s for r in delivered]
    hits = sum(
        admission.slo_for(r.model_key).hit(r.event.latency_s) for r in delivered
    )
    waits = [r.event.start_s - r.event.arrival_s for r in delivered]
    energy = sum(report.stream.total_energy_j for report in reports)
    metrics = {
        "sim_latency_p50_s": _nearest_rank(latencies, 0.50),
        "sim_latency_p99_s": _nearest_rank(latencies, 0.99),
        "deadline_hit_rate": hits / offered,
        "undelivered_frac": (offered - len(delivered)) / offered,
        "sim_energy_per_frame_j": energy / len(delivered) if delivered else 0.0,
        "scheduler.queue_wait_p50_s": _nearest_rank(waits, 0.50),
        "scheduler.queue_wait_p99_s": _nearest_rank(waits, 0.99),
    }
    counts = [_simulated_counts(report) for report in reports]
    for name in counts[0]:
        metrics[name] = sum(count[name] for count in counts) / len(counts)
    return {name: float(value) for name, value in metrics.items()}


def _simulated_counts(report) -> dict[str, float]:
    metrics = {
        "admission.shed": 0.0,
        "admission.expired": 0.0,
        "health.upsets": 0.0,
        "health.recalibrations": 0.0,
        "health.chaos_events": 0.0,
        "failover.retries_scheduled": 0.0,
        "failover.frames_recovered": 0.0,
        "failover.spares_activated": 0.0,
        "brownout.peak_tier": 0.0,
        "controlplane.scaling_decisions": 0.0,
        "controlplane.node_seconds_saved_frac": 0.0,
    }
    if report.slo is not None:
        classes = report.slo.classes.values()
        metrics["admission.shed"] = float(sum(s.shed for s in classes))
        metrics["admission.expired"] = float(sum(s.expired for s in classes))
    if report.health is not None:
        metrics["health.upsets"] = float(report.health.upsets)
        metrics["health.recalibrations"] = float(report.health.recalibrations)
        metrics["health.chaos_events"] = float(report.health.chaos_events)
    if report.resilience is not None:
        resilience = report.resilience
        metrics["failover.retries_scheduled"] = float(resilience.retries_scheduled)
        metrics["failover.frames_recovered"] = float(resilience.frames_recovered)
        metrics["failover.spares_activated"] = float(resilience.spares_activated)
    if report.brownout is not None:
        metrics["brownout.peak_tier"] = float(report.brownout.peak_tier)
    if report.controlplane is not None:
        plane = report.controlplane
        metrics["controlplane.scaling_decisions"] = float(len(plane.decisions))
        metrics["controlplane.node_seconds_saved_frac"] = (
            plane.node_seconds_saved_frac
        )
    return metrics


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """Checks, attempted/failed counts and the digest of one process.

    Every checked ``serve()`` call gets an index; a failed check marks
    the calls it covers, so each call's frames count as failed once.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        #: Frames per call (one stream per workload and seed).
        self.frames = 0
        self.calls = 0
        self.failed_calls: set[int] = set()
        self.problems: list[str] = []
        #: Digest of the set-up's first call plus the window's calls.
        self.digest = hashlib.sha256()
        self.digest_calls: list[int] = []
        #: The window's reports (simulated metrics are read from them) and
        #: their simulated fingerprints.
        self.window: list = []
        self.fingerprints: set[str] = set()
        #: Peak RSS once the set-ups and the window have run [MiB].
        self.window_peak_rss_mb = float("nan")
        #: Timed calls that programmed weights (cache misses).
        self.reprogramming_calls = 0

    @property
    def attempted(self) -> int:
        return self.calls * self.frames

    @property
    def failed(self) -> int:
        return len(self.failed_calls) * self.frames

    def fail(self, calls, problem: str) -> None:
        self.failed_calls.update(calls)
        if len(self.problems) < 10:
            self.problems.append(problem)

    def set_up(
        self, repeats: int, min_seconds: float = 0.0
    ) -> tuple[object, list[float], list[float]]:
        """Set the workload up ``repeats`` times, and more until the
        set-ups add up to ``min_seconds``; keeps the last set-up and
        returns it with each set-up's seconds and the mean seconds of the
        reference burns that followed it.

        Each set-up is fresh and closes with the same first call, so the
        first calls' digests must agree.
        """
        times: list[float] = []
        burns: list[float] = []
        digests: set[str] = set()
        first_calls: list[int] = []
        while len(times) < repeats or sum(times) < min_seconds:
            # Release the previous set-up, cycles too, so that every set-up
            # starts from the same heap and the memory peak does not grow
            # with the number of set-ups a run makes.
            served = None
            gc.collect()
            started = time.perf_counter()
            served = self.workload.setup(self.seed)
            times.append(time.perf_counter() - started)
            burns.append(burn_after(times[-1]))
            self.frames = len(served.requests)
            one = hashlib.sha256()
            update_digest(one, served.first)
            digests.add(one.hexdigest())
            first_calls.append(self.check_report(served, served.first))
        if len(digests) != 1:
            self.fail(first_calls, "set-ups are not deterministic")
        update_digest(self.digest, served.first)
        self.digest_calls.append(first_calls[-1])
        return served, times, burns

    def call(self, served, wrap=None) -> float | None:
        """One checked ``serve()`` call; its host seconds, or ``None`` if
        it raised.  ``wrap(call)`` optionally surrounds the call (the
        traced phase opens its root span there); the time covers it.
        The call's index is left in ``last_call``."""
        misses0 = served.cache.stats.misses
        try:
            started = time.perf_counter()
            report = wrap(served.call) if wrap else served.call()
            elapsed = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - the benchmark's boundary
            self.last_call = self.calls
            self.calls += 1
            self.fail([self.last_call], traceback.format_exc())
            return None
        self.last_call = self.check_call(
            served, report, served.cache.stats.misses - misses0
        )
        return elapsed

    def serve_window(self, served) -> bool:
        """Serve the digest window untimed; whether every call returned."""
        return all(self.call(served) is not None for _ in range(WINDOW_CALLS))

    def timed_calls(self, served, seconds: float) -> tuple[list[float], list[float]]:
        """Serve the stream back to back for ``seconds``, in whole
        blocks of ``WINDOW_CALLS`` calls, each call followed by reference burns;
        returns the call times and their burn times."""
        durations: list[float] = []
        burns: list[float] = []
        phase_start = time.perf_counter()
        while (elapsed := self.call(served)) is not None:
            durations.append(elapsed)
            burns.append(burn_after(elapsed))
            if (
                time.perf_counter() - phase_start >= seconds
                and len(durations) % WINDOW_CALLS == 0
            ):
                break
        return durations, burns

    def check_report(self, served, report) -> int:
        """Check one call's responses; returns the call's index."""
        index = self.calls
        self.calls += 1
        problems = response_problems(served.requests, report)
        if problems:
            self.fail([index], "; ".join(problems))
        return index

    def check_call(self, served, report, misses: int) -> int:
        """Check a call after set-up: the window's calls feed the digest,
        every later (timed) call must repeat one of them and, on a steady
        workload, program nothing."""
        index = self.check_report(served, report)
        fingerprint = simulated_fingerprint(report)
        if len(self.window) < WINDOW_CALLS:
            update_digest(self.digest, report)
            self.digest_calls.append(index)
            self.window.append(report)
            self.fingerprints.add(fingerprint)
            if len(self.window) == WINDOW_CALLS:
                # Read at a fixed amount of work: repeating the call keeps
                # the allocator's footprint creeping, and how often the
                # call repeats depends on host speed.
                self.window_peak_rss_mb = peak_rss_mb()
            return index
        if fingerprint not in self.fingerprints:
            self.fail([index], "a timed call left the window's simulated cycle")
        if misses:
            self.reprogramming_calls += 1
            if self.workload.steady:
                self.fail(
                    [index],
                    f"steady-state guard: {misses} cache misses in a timed call",
                )
        return index

    def check_digest(self) -> tuple[str, str]:
        """The run digest and its verdict against ``expected.json``."""
        value = self.digest.hexdigest()
        recorded = load_expected().get(self.workload.name, {}).get(str(self.seed))
        if recorded is None:
            return value, "no digest recorded for this seed"
        if recorded != value:
            self.fail(self.digest_calls, f"digest {value} != recorded {recorded}")
            return value, "MISMATCH"
        return value, "matches expected.json"


def _per_call_rate(frames: int, durations: list[float]) -> float:
    return frames * len(durations) / sum(durations)


def call_refs(durations: list[float], burns: list[float]) -> list[float]:
    """Each call's (or set-up's) host time in reference burns.

    ``burns[i]`` is the mean burn right after call ``i``, so the burns
    after call ``i - 1`` ran right before it; a call is measured against
    the mean of the burns on both sides of it (the first, against those
    after it).
    """
    before = burns[:1] + burns[:-1]
    return [
        call / ((ahead + behind) / 2)
        for call, ahead, behind in zip(durations, before, burns)
    ]


def frames_per_ref(frames: int, refs: list[float]) -> float:
    """Median, over blocks of ``WINDOW_CALLS`` consecutive calls (one
    simulated cycle each), of frames served per reference burn."""
    blocks = [
        refs[start : start + WINDOW_CALLS]
        for start in range(0, len(refs) - WINDOW_CALLS + 1, WINDOW_CALLS)
    ]
    return statistics.median(frames * len(b) / sum(b) for b in blocks)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far [MiB]."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run: Run, seconds: float, units: dict) -> tuple[dict, list[str]]:
    """The untraced run: end-to-end metric values and report lines."""
    served, setups, setup_burns = run.set_up(SETUP_REPEATS, SETUP_SECONDS)
    frames = len(served.requests)
    durations, burns = (
        run.timed_calls(served, seconds) if run.serve_window(served) else ([], [])
    )
    lines = []
    values: dict[str, float] = {}
    if len(durations) >= WINDOW_CALLS:
        refs = call_refs(durations, burns)
        values["frames_per_ref"] = frames_per_ref(frames, refs)
        values["serve_ref_p50"] = statistics.median(refs)
        lines.append(
            f"frames_per_s {_per_call_rate(frames, durations)!r} frames/s "
            f"over all timed calls; serve_s_p50 {statistics.median(durations)!r} s; "
            f"reference burn p50 {statistics.median(burns)!r} s"
        )
        if len(durations) >= 100:  # so that >= 10 calls lie beyond the p90
            lines.append(
                f"serve_ref_p90 {_nearest_rank(refs, 0.90)!r} ref, serve_s_p90 "
                f"{_nearest_rank(durations, 0.90)!r} s over {len(durations)} calls"
            )
        else:
            lines.append(
                f"serve_ref_p90 not reported: {len(durations)} calls < 100"
            )
    values["setup_s"] = NOMINAL_BURN_S * statistics.median(
        call_refs(setups, setup_burns)
    )
    values["peak_rss_mb"] = run.window_peak_rss_mb
    lines.append(
        f"{len(durations)} timed serve() calls of {frames} frames; "
        f"{len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)} s "
        f"(wall clock)"
    )
    digest, verdict = run.check_digest()
    lines.append(f"digest {digest}: {verdict}")
    if run.window:
        simulated = simulated_metrics(run.window, served.admission)
        for name in SIMULATED_END_TO_END:
            lines.append(f"{name} {simulated[name]!r} {units[name]}")
    lines.append(
        f"timed calls that reprogrammed weights: {run.reprogramming_calls}"
        + ("" if run.workload.steady else " (modelled recalibration)")
    )
    return values, lines


def trace(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """The traced run: per-layer metrics, overhead and span accounting."""
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        served, _, _ = run.set_up(1)
    setup_layers = {
        "server.warmup_s": tracer.total_s.get("server.warmup", 0.0),
        "capacity.search_s": tracer.total_s.get("capacity.search", 0.0),
    }
    tracer.reset()
    if not run.serve_window(served):
        return {}, ["the untimed window failed"]
    frames = len(served.requests)
    stats = served.cache.stats
    cache = {"lookups": 0, "hits": 0, "misses": 0}
    worst = 0.0

    def rooted(call):
        nonlocal worst
        before_s = tracer.total_self_s()
        before = (stats.lookups, stats.hits, stats.misses)
        with tracer.span("bench.call"):
            report = call()
        for key, count in zip(cache, before):
            cache[key] += getattr(stats, key) - count
        attributed = tracer.total_self_s() - before_s
        gap = abs(attributed - tracer.last_root_s) / tracer.last_root_s
        worst = max(worst, gap)
        return report

    # Untraced and traced blocks of WINDOW_CALLS calls alternate, so host
    # drift hits both alike and each block covers the simulated cycle.
    # Each call is followed by reference burns (outside any span).
    untraced: list[float] = []
    traced: list[float] = []
    traced_calls: list[int] = []
    phase_start = time.perf_counter()
    failed = False
    while not failed and time.perf_counter() - phase_start < seconds:
        for phase, refs in ((None, untraced), (rooted, traced)):
            with tracing.installed(tracer) if phase else contextlib.nullcontext():
                for _ in range(WINDOW_CALLS):
                    elapsed = run.call(served, wrap=phase)
                    if elapsed is None:
                        failed = True
                        break
                    refs.append(elapsed / burn_after(elapsed))
                    if phase:
                        traced_calls.append(run.last_call)
            if failed:
                break
    if len(untraced) < WINDOW_CALLS or len(traced) < WINDOW_CALLS:
        return {}, ["no complete timed block"]
    calls = len(traced)
    lines = []
    if worst > ACCOUNTING_RTOL:
        run.fail(
            traced_calls, f"span self times miss the call total by {worst:.3g}"
        )
    lines.append(
        "span accounting: self times sum to the traced call totals "
        f"(worst relative gap {worst:.2g} over {calls} calls)"
    )
    lines.append(
        "unattributed (benchmark root self) share: "
        f"{tracer.self_s['bench.call'] / tracer.total_s['bench.call']:.2g}"
    )
    if run.workload.steady and tracer.calls.get("opc.program", 0):
        run.fail(traced_calls, "steady-state guard: opc.program ran timed")

    def per_call(table, name):
        return table.get(name, 0.0) / calls

    hits, misses, lookups = cache["hits"], cache["misses"], cache["lookups"]
    head_calls = tracer.calls.get("pipeline.head", 0)
    rate_untraced = frames_per_ref(frames, untraced)
    rate_traced = frames_per_ref(frames, traced)
    values = {
        "server.serve.calls": per_call(tracer.calls, "server.serve"),
        "server.serve.self_s": per_call(tracer.self_s, "server.serve"),
        "server.warmup_s": setup_layers["server.warmup_s"],
        "scheduler.run_s": per_call(tracer.self_s, "scheduler.run"),
        "scheduler.frames": per_call(tracer.counters, "scheduler.frames"),
        "cache.lookups": lookups / calls,
        "cache.hits": hits / calls,
        "cache.misses": misses / calls,
        # CacheStats.hit_rate's convention: 0.0 when nothing was looked up.
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.get_or_program_s": per_call(tracer.self_s, "cache.get_or_program"),
        "cache.key_for_s": per_call(tracer.self_s, "cache.key_for"),
        "opc.program.calls": per_call(tracer.calls, "opc.program"),
        "opc.program_s": per_call(tracer.self_s, "opc.program"),
        "opc.convolve.calls": per_call(tracer.calls, "opc.convolve"),
        "opc.convolve_s": per_call(tracer.self_s, "opc.convolve"),
        "opc.dot.calls": per_call(tracer.calls, "opc.dot"),
        "opc.dot_s": per_call(tracer.self_s, "opc.dot"),
        "opc.macs": per_call(tracer.counters, "opc.macs"),
        "opc.bytes_moved": per_call(tracer.counters, "opc.bytes_moved"),
        "pipeline.forward.calls": head_calls / calls,
        "pipeline.frames_per_call": (
            tracer.counters.get("pipeline.frames", 0.0) / head_calls
            if head_calls
            else 0.0
        ),
        "pipeline.head_s": per_call(tracer.self_s, "pipeline.head"),
        "nn.encode_s": per_call(tracer.self_s, "nn.encode"),
        "controlplane.serve.self_s": per_call(tracer.self_s, "controlplane.serve"),
        "controlplane.shard_serves": (
            per_call(tracer.calls, "server.serve")
            if tracer.calls.get("controlplane.serve")
            else 0.0
        ),
        "router.route.calls": per_call(tracer.calls, "router.route"),
        "router.route_s": per_call(tracer.self_s, "router.route"),
        "autoscaler.observe.calls": per_call(tracer.calls, "autoscaler.observe"),
        "capacity.search_s": setup_layers["capacity.search_s"],
        "health.advance_s": per_call(tracer.self_s, "health.advance"),
        "health.fault_core_s": per_call(tracer.self_s, "health.fault_core"),
        "trace.overhead_frac": (rate_untraced - rate_traced) / rate_untraced,
    }
    values.update(simulated_metrics(run.window, served.admission))
    lines.append(
        f"tracing overhead: untraced {rate_untraced:.2f} frames/ref over "
        f"{len(untraced)} calls, traced {rate_traced:.2f} frames/ref over "
        f"{calls} calls"
    )
    digest, verdict = run.check_digest()
    lines.append(f"digest {digest}: {verdict}")
    return values, lines


#: Simulated end-to-end metrics: printed on every untraced run, and part
#: of the traced run's per-layer set (they repeat exactly, so they gate
#: behaviour through the digest rather than through a spread bound).
SIMULATED_END_TO_END = (
    "sim_latency_p50_s",
    "sim_latency_p99_s",
    "deadline_hit_rate",
    "undelivered_frac",
    "sim_energy_per_frame_j",
)


def _declared() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """What ``BENCHMARK.json`` declares, the contract the result follows:
    ``{name: why}`` of the workloads and ``{name: unit}`` of the
    end-to-end and of the per-layer metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {w["name"]: w["why"] for w in declared["workloads"]},
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def record(run: Run) -> str:
    """Store the digest of set-up plus the window for this seed."""
    served, _, _ = run.set_up(1)
    run.serve_window(served)
    if run.failed:
        raise SystemExit(
            "refusing to record a failing run:\n" + "\n".join(run.problems)
        )
    expected = load_expected()
    digest = run.digest.hexdigest()
    expected.setdefault(run.workload.name, {})[str(run.seed)] = digest
    ordered = {
        name: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        for name, seeds in sorted(expected.items())
    }
    EXPECTED.write_text(json.dumps(ordered, indent=2) + "\n")
    return digest


def main(argv: list[str] | None = None) -> int:
    # Before anything imports NumPy.
    for variable in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[variable] = BLAS_THREADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload; known: {', '.join(WORKLOADS)}")
    run = Run(workload, args.seed)
    if args.record:
        print(f"{workload.name} seed {args.seed}: {record(run)}")
        return 0

    whys, end_to_end, per_layer = _declared()
    if args.trace:
        values, lines = trace(run, args.seconds)
        declared = per_layer
    else:
        values, lines = measure(run, args.seconds, per_layer)
        declared = end_to_end
    host = host_record()
    print(f"workload {workload.name} seed {args.seed}: {whys[workload.name]}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in lines:
        print(line)
    for problem in run.problems:
        print("FAILED: " + problem)
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
        if name in values and math.isfinite(values[name])
    }
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print("FAILED: metrics not measured: " + ", ".join(missing))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']!r} {entry['unit']}")
    correct = run.failed == 0 and not missing
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
