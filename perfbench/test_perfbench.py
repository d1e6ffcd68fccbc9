"""Tests of the benchmark's own helpers: run with ``python3 -m pytest perfbench``."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
from harness import Rep, measure, tail  # noqa: E402
from tracing import Patches, Tracer, self_times  # noqa: E402


def ticking_tracer() -> Tracer:
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


# -- percentile rule --------------------------------------------------------------


@pytest.mark.parametrize("n, beyond", [(1000, 10), (999, 10), (1100, 11), (900, 9)])
def test_p99_counts_samples_strictly_beyond_it(n, beyond):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    result = tail(samples, 99.0)
    assert result.value == pytest.approx(np.percentile(samples, 99.0))
    assert (result.samples, result.beyond) == (n, beyond)
    assert result.supported() == (beyond >= harness.MIN_BEYOND)


def test_p99_of_fastest_timings_counts_every_repetition():
    # 299 steps: three lie beyond the p99, so four timings of each suffice.
    fastest = harness.fastest([[float(i) for i in range(299)], [float(i + 1) for i in range(299)]])
    result = tail(fastest, 99.0)
    assert result.beyond == 3
    assert not result.supported(3) and result.supported(4)


def test_tied_tail_is_not_supported():
    # Ties at the percentile are not beyond it.
    result = tail([1.0] * 2000, 99.0)
    assert result.value == 1.0
    assert result.beyond == 0 and not result.supported(100)


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children_per_phase():
    tracer = ticking_tracer()
    with tracer.span("setup.first_step"):  # 0..7
        with tracer.span("engine.step_self"):  # 1..6
            with tracer.span("network.plan"):  # 2..3
                pass
            with tracer.span("network.plan"):  # 4..5
                pass
    with tracer.span("engine.step_self"):  # 8..11
        with tracer.span("network.plan"):  # 9..10
            pass
    totals = self_times(tracer.spans)
    assert totals[("setup", "setup.first_step")] == [2.0, 1]
    assert totals[("setup", "engine.step_self")] == [3.0, 1]
    assert totals[("setup", "network.plan")] == [2.0, 2]
    assert totals[("steady", "engine.step_self")] == [2.0, 1]
    assert totals[("steady", "network.plan")] == [1.0, 1]
    # Self times partition the root spans' durations.
    assert sum(s for s, _ in totals.values()) == 10.0


def test_reentrant_wrapped_function_is_not_counted_twice():
    tracer = ticking_tracer()

    def countdown(n: int) -> int:
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap(countdown, "layer")
    assert traced(2) == 2
    # Opens at 0, 1, 2; closes at 3, 4, 5: durations 5, 3, 1.
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert self_times(tracer.spans) == {("steady", "layer"): [5.0, 3]}


def test_span_records_tag_and_survives_exceptions():
    tracer = ticking_tracer()
    tracer.tag = 7

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap(boom, "x")()
    assert tracer.spans == [["x", 0.0, 1.0, -1, 7]]


def test_patches_wrap_overrides_and_properties_then_restore():
    class Base:
        def work(self):
            return "base"

        @property
        def size(self):
            return 3

    class Child(Base):
        def work(self):
            return "child+" + super().work()

    originals = (Base.__dict__["work"], Child.__dict__["work"], Base.__dict__["size"])
    tracer = ticking_tracer()
    patches = Patches()
    patches.wrap_method(tracer, Base, "work", "w")
    patches.wrap_method(tracer, Base, "size", "s")
    assert Child().work() == "child+base"
    assert Child().size == 3
    assert [s[0] for s in tracer.spans] == ["w", "w", "s"]
    patches.restore()
    assert (Base.__dict__["work"], Child.__dict__["work"], Base.__dict__["size"]) == originals
    with pytest.raises(LookupError):
        Patches().wrap_method(tracer, Base, "missing", "m")


# -- failure accounting ---------------------------------------------------------------


def test_open_loop_rejected_and_unfinished_requests_fail():
    rep = Rep()
    rep.begin(256)
    rep.end(3 + 2)
    assert (rep.attempted, rep.failed, rep.in_flight) == (256, 5, 0)


def test_crashed_open_loop_run_fails_every_request():
    rep = Rep()
    rep.begin(256)
    rep.crashed()
    assert (rep.attempted, rep.failed) == (256, 256)


def test_crashed_closed_loop_fails_only_the_raising_iteration():
    rep = Rep()
    for latency in (1.0, float("nan"), 2.0):
        rep.begin(1)
        rep.end(0 if harness.positive_finite(latency) else 1)
    rep.begin(1)
    rep.crashed()
    assert (rep.attempted, rep.failed) == (4, 2)


def test_measure_reports_a_crash_and_stops():
    calls = []

    def run_rep(rep, tracer):
        calls.append(rep)
        rep.begin(1)
        rep.end(0)
        rep.digest = "d"
        if len(calls) == 2:
            rep.begin(1)
            raise RuntimeError("step failed")

    outcome = measure(run_rep, seconds=60.0, min_reps=5, traced=False)
    assert len(calls) == 2
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert outcome.crash[0] == "untraced" and "step failed" in outcome.crash[1]
    assert "untraced repetition raised" in outcome.errors()


def test_crash_before_any_operation_still_counts_one_failure():
    def run_rep(rep, tracer):
        raise RuntimeError("build failed")

    outcome = measure(run_rep, seconds=0.0, min_reps=1, traced=False)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_digest_mismatch_between_repetitions_is_an_error():
    digests = iter(["a", "a", "b"])

    def run_rep(rep, tracer):
        rep.digest = next(digests)

    outcome = measure(run_rep, seconds=0.0, min_reps=3, traced=False)
    assert any("differ" in error for error in outcome.errors())


# -- the benchmark definition ------------------------------------------------------------


def test_benchmark_json_names_what_the_command_prints():
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    per_layer = harness.per_layer_names(workloads.LAYERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
