"""Repetition loop, statistics and failure accounting for the benchmark.

A workload is measured in repetitions.  Each repetition builds its system
from scratch (that is the set-up being timed) and runs a fixed amount of
simulated work, so every repetition of a run must produce the same
simulated trace, and step ``i`` does the same work in each of them.

The host's speed is not steady: neighbours on the machine slow a core by
up to half for stretches of milliseconds to minutes, and contention only
ever slows a step down.  So a step's cost is taken as its fastest time over
the repetitions, and repetitions take turns on the CPUs this process may
use, because the cores are disturbed independently.  Set-up is the median
over the repetitions.
"""

import dataclasses
import gc
import hashlib
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro.serving.metrics import percentile
from tracing import NullTracer, Tracer, self_times

#: A tail percentile is supported only with this many samples beyond it.
MIN_BEYOND = 10

#: name -> unit of the end-to-end metrics, all from untraced repetitions.
#: ``sim_*`` are modelled-hardware results: deterministic for a seed.
END_TO_END = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_p99": "ms",
    "peak_rss_mib": "MiB",
    "sim_iter_ms": "sim_ms",
    "sim_load_ratio": "ratio",
}
#: Program counters and serving results reported by the traced run; a
#: workload without the layer reports 0.
COUNTERS = {
    "network.state_rebuilds": "count",
    "network.dest_row_builds": "count",
    "network.operator_mib": "MiB",
    "balancer.migrations": "count",
    "balancer.triggers": "count",
    "serving.completed": "count",
    "serving.rejected": "count",
    "serving.dispatches": "count",
    "serving.batch_tokens_mean": "tokens",
    "serving.residual_queue_tokens": "tokens",
    "serving.sim_ttft_p50_ms": "sim_ms",
    "serving.sim_ttft_p99_ms": "sim_ms",
    "serving.sim_tpot_p50_ms": "sim_ms",
    "serving.sim_goodput_rps": "1/sim_s",
}
SETUP_SPANS = ("setup.system", "setup.simulator", "setup.first_step")


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float = math.nan
    #: Host seconds of each measured ``step()`` call.
    step_s: list[float] = field(default_factory=list)
    #: Host seconds from the end of the previous step (or the start of the
    #: measured phase) to the end of each step: the step plus the caller's
    #: work before it.
    cycle_s: list[float] = field(default_factory=list)
    #: Host seconds of the measured phase.
    measured_s: float = math.nan
    #: Operations attempted and failed, kept current while the repetition
    #: runs; ``in_flight`` counts those started and not yet finished, which
    #: all fail if the repetition raises.
    attempted: int = 0
    failed: int = 0
    in_flight: int = 0
    digest: str = ""
    #: Deterministic simulated outputs and program counters.
    sim: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: Correctness checks that failed, as readable messages.
    errors: list[str] = field(default_factory=list)
    #: Spans of a traced repetition (see :mod:`tracing`).
    spans: list = field(default_factory=list)

    def begin(self, operations: int) -> None:
        """Count ``operations`` as attempted and in flight."""
        self.attempted += operations
        self.in_flight = operations

    def end(self, failed: int) -> None:
        """Finish the in-flight operations, ``failed`` of them failed.

        Closed loop: an iteration fails if its simulated latency is not a
        positive finite number.  Open loop: a request fails if it was
        rejected or left unfinished.
        """
        self.failed += failed
        self.in_flight = 0

    def crashed(self) -> None:
        """The repetition raised: everything in flight failed."""
        self.failed += self.in_flight
        self.in_flight = 0


@dataclass
class Tail:
    """A percentile of a sample and how many sample values exceed it."""

    value: float
    samples: int
    beyond: int

    def supported(self, repetitions: int = 1) -> bool:
        """Whether ten samples lie beyond the percentile when each sample
        is a step's fastest of ``repetitions`` timings: every timing of a
        step whose fastest exceeds the percentile exceeds it too."""
        return self.beyond * repetitions >= MIN_BEYOND


def tail(samples: list[float], q: float) -> Tail:
    """The type-7 ``q``-th percentile and the count of samples above it."""
    value = percentile(samples, q)
    return Tail(value, len(samples), sum(1 for s in samples if s > value))


def fastest(series: list[list[float]]) -> list[float]:
    """Element-wise minimum over equally long series."""
    return [min(values) for values in zip(*series, strict=True)]


def check(rep: Rep, condition: bool, message: str) -> None:
    if not condition:
        rep.errors.append(message)


def positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


def digest(rows) -> str:
    """SHA-256 over the exact ``repr`` of each dataclass row's fields."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(dataclasses.astuple(row)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class Outcome:
    """Every repetition of one run, untraced and traced."""

    reps: list[Rep]
    traced: list[Rep]
    #: (repetition kind, traceback) of the repetition that raised, if any.
    crash: tuple[str, str] | None = None

    @property
    def attempted(self) -> int:
        """Operations attempted; a run that raised before its first
        operation still counts as one attempt."""
        count = sum(rep.attempted for rep in self.reps + self.traced)
        return max(count, 1) if self.crash else count

    @property
    def failed(self) -> int:
        count = sum(rep.failed for rep in self.reps + self.traced)
        return max(count, 1) if self.crash else count

    def errors(self) -> list[str]:
        found = [error for rep in self.reps + self.traced for error in rep.errors]
        if self.crash is not None:
            found.append(f"{self.crash[0]} repetition raised")
        digests = {rep.digest for rep in self.reps + self.traced}
        if len(digests) > 1:
            found.append(
                f"simulated traces differ across repetitions: {sorted(digests)}"
            )
        return found


def measure(run_rep, seconds: float, min_reps: int, traced: bool) -> Outcome:
    """Repeat ``run_rep(rep, tracer)`` until the run has lasted ``seconds``.

    Untraced runs also stop no earlier than ``min_reps`` repetitions.
    Traced runs alternate an untraced and a traced repetition of the same
    work on the same CPU and stop after the first pair that ends past
    ``seconds``; the pairs' wall times give the tracing overhead.  A
    repetition that raises ends the run: the failure is recorded, never
    skipped.
    """
    outcome = Outcome(reps=[], traced=[])
    kinds = [(outcome.reps, False)] + ([(outcome.traced, True)] if traced else [])
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    turn = 0
    try:
        while True:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            for sink, with_trace in kinds:
                rep = Rep()
                sink.append(rep)
                tracer = Tracer() if with_trace else NullTracer()
                gc.collect()
                try:
                    run_rep(rep, tracer)
                except Exception:
                    rep.crashed()
                    kind = "traced" if with_trace else "untraced"
                    outcome.crash = (kind, traceback.format_exc())
                    return outcome
                if with_trace:
                    rep.spans = tracer.spans
            if time.perf_counter() - start >= seconds and (
                traced or len(outcome.reps) >= min_reps
            ):
                return outcome
    finally:
        os.sched_setaffinity(0, cpus)


# -- metrics ----------------------------------------------------------------------


def per_layer_names(layers) -> dict:
    """name -> unit of every per-layer metric, in report order."""
    names = {}
    for layer in layers:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
    for span in SETUP_SPANS:
        names[f"{span}.s"] = "s"
    names["setup.network_s"] = "s"
    names.update(COUNTERS)
    names["trace.overhead_pct"] = "%"
    return names


def end_to_end(reps: list[Rep]) -> tuple[dict, dict]:
    """(metrics, details) from the untraced repetitions.

    Step percentiles are over each step's fastest ``step()`` time;
    ``iters_per_s`` counts steps per second of the fastest cycles, so it
    includes the caller's work between steps (the front end's bookkeeping).
    """
    steps = fastest([rep.step_s for rep in reps])
    p99 = tail(steps, 99.0)
    metrics = {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "iters_per_s": len(steps) / math.fsum(fastest([rep.cycle_s for rep in reps])),
        "iter_ms_p50": percentile(steps, 50.0) * 1e3,
        "iter_ms_p99": p99.value * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_iter_ms": reps[0].sim["sim_iter_ms"],
        "sim_load_ratio": reps[0].sim["sim_load_ratio"],
    }
    details = {
        "repetitions": len(reps),
        "steps_per_repetition": p99.samples,
        "steps_beyond_p99": p99.beyond,
        "p99_supported": p99.supported(len(reps)),
        "setup_s_each": [rep.setup_s for rep in reps],
        "measured_s_each": [rep.measured_s for rep in reps],
    }
    if "serving.resolved" in reps[0].counters:
        details["requests_per_s"] = max(
            rep.counters["serving.resolved"] / rep.measured_s for rep in reps
        )
    return metrics, details


def per_layer(reps: list[Rep], traced: list[Rep], layers) -> dict:
    """Per-repetition means over the traced repetitions.

    Layer self times cover the steady loop; ``setup.*`` are the set-up
    phases' wall times and ``setup.network_s`` the network layers' share
    of them, where the lazy route and pricer builds land.
    """
    count = len(traced)
    totals: dict = {}
    setup = dict.fromkeys(SETUP_SPANS, 0.0)
    for rep in traced:
        for key, (seconds, calls) in self_times(rep.spans).items():
            entry = totals.setdefault(key, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        for name, start, end, _parent, _tag in rep.spans:
            if name in setup:
                setup[name] += end - start
    metrics = {}
    for layer in layers:
        seconds, calls = totals.get(("steady", layer), (0.0, 0))
        metrics[f"{layer}.self_s"] = seconds / count
        metrics[f"{layer}.calls"] = calls / count
    for name, seconds in setup.items():
        metrics[f"{name}.s"] = seconds / count
    metrics["setup.network_s"] = (
        math.fsum(
            seconds
            for (phase, name), (seconds, _calls) in totals.items()
            if phase == "setup" and name.startswith("network.")
        )
        / count
    )
    produced = {**traced[0].sim, **traced[0].counters}
    for name in COUNTERS:
        metrics[name] = produced.get(name, 0)
    # Over the measured loop, each cycle at its fastest on either side.
    untraced = math.fsum(fastest([rep.cycle_s for rep in reps]))
    with_spans = math.fsum(fastest([rep.cycle_s for rep in traced]))
    metrics["trace.overhead_pct"] = 100.0 * (with_spans - untraced) / untraced
    return metrics
