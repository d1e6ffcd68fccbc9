"""The benchmark's workloads: two closed loops and the open-loop front end.

Every repetition builds its system from scratch, so set-up is measured
cold each time: the simulator keeps its route tables, pricers and plans
on the mapping and placement objects, never in process-wide state, and a
fresh mapping starts with none of them.

* ``closed64_greedy`` — the trajectory system of the ``serving_speed``
  spec: one 8x8 ER wafer, a 64-expert Qwen3 variant at 58 layers, the
  greedy balancer, serving-default pricing (the auto rule picks the dense
  operator), 128 tokens per group, 300 iterations per repetition.
* ``closed1024_sparse`` — four 16x16 wafers under HER mapping (1024
  devices), 256 experts, 58 layers, the greedy balancer (the auto rule
  picks the sparse operator).  A repetition is the first step plus two
  steady ones: set-up dominates and each steady step costs seconds.
* ``open64_poisson`` — ``slo_serving``'s ``poisson_reference``: the
  front end on the 8x8 wafer at 4 layers, NI-Balancer, Poisson arrivals
  at 500 req/s, 50 ms TTFT deadline, queue 32, 4 slots per backend, 256
  requests per repetition.

Set-up is system build through the end of the first ``step()`` for the
closed loops (the lazy route and pricer builds land there) and
construction only for the front end, whose first step is part of its run.
"""

import math
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import repro.engine.iteration as engine_iteration
import repro.engine.serving as engine_serving
import repro.serving.frontend as serving_frontend
from repro.balancer import GreedyBalancer, NonInvasiveBalancer
from repro.balancer.stacked import StackedBalancer
from repro.engine import (
    EngineConfig,
    IterationSimulator,
    ServingConfig,
    ServingSimulator,
    ServingTrace,
)
from repro.engine.compute import ComputeModel
from repro.models import QWEN3_235B
from repro.network.alltoall import (
    LayeredDispatchPlan,
    SparseAllToAllPricer,
    dense_operator_nbytes,
    sparse_alltoall_pricer,
)
from repro.serving import FrontendConfig, ServingFrontend
from repro.serving.dispatcher import ReplicaDispatcher
from repro.systems import build_multi_wsc, build_wsc
from repro.workload import (
    CHAT,
    CODING,
    MATH,
    PRIVACY,
    AzureLikeMixer,
    GatingSimulator,
    PoissonArrivals,
)

from harness import Rep, check, digest, positive_finite
from tracing import Patches, Tracer

MIB = 2**20


@dataclass(frozen=True)
class Seeds:
    """Seeds of the generated inputs: gating stream, arrivals, request shapes."""

    gating: int
    arrival: int
    shape: int


#: ``--seed 0``: the seeds of the tracked ``serving_speed``/``slo_serving``
#: records.  ``--seed n`` offsets each of them by ``n``.
REFERENCE_SEEDS = Seeds(gating=41, arrival=11, shape=5)


def seeds_for(seed: int) -> Seeds:
    return Seeds(
        gating=REFERENCE_SEEDS.gating + seed,
        arrival=REFERENCE_SEEDS.arrival + seed,
        shape=REFERENCE_SEEDS.shape + seed,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: Runs one repetition: fills the ``Rep`` it is given.
    run: Callable[[Rep, object, Seeds], None]
    #: Untraced runs hold at least this many repetitions.
    min_reps: int
    #: The run fails unless ten step samples lie beyond the p99.
    checks_p99: bool


class StepClock:
    """Times every ``step()`` of one simulator from now on.

    Installed as an instance attribute, so the front end's own calls are
    timed too.  Records each call's duration, its cycle (time since the
    previous call ended, or since the clock was made) and its batch
    argument, and stamps the tracer with the iteration about to run.
    """

    def __init__(self, simulator: ServingSimulator, tracer) -> None:
        self.durations: list[float] = []
        self.cycles: list[float] = []
        self.batch_tokens: list[int | None] = []
        step = simulator.step
        workload = simulator.workload
        last_end = time.perf_counter()

        def timed(tokens_per_group=None):
            nonlocal last_end
            tracer.tag = workload.iteration
            start = time.perf_counter()
            record = step(tokens_per_group=tokens_per_group)
            end = time.perf_counter()
            self.durations.append(end - start)
            self.cycles.append(end - last_end)
            last_end = end
            self.batch_tokens.append(tokens_per_group)
            return record

        simulator.step = timed


# -- tracing ------------------------------------------------------------------

#: Steady-loop layers, in report order.  Each maps to the public entry
#: points below; self time excludes every traced callee.
LAYERS = (
    "workload.sample",
    "network.plan",
    "network.alltoall_price",
    "network.sparse_durations",
    "network.sparse_state",
    "network.layer0_alltoall",
    "network.allreduce",
    "network.migration_route",
    "engine.layer0_self",
    "engine.rooflines",
    "engine.load_stats",
    "engine.step_self",
    "balancer.trigger",
    "balancer.plan",
    "balancer.commit",
    "balancer.split",
    "serving.frontend_self",
    "serving.dispatcher",
)
METHOD_TARGETS = (
    (GatingSimulator, "next_group_counts", "workload.sample"),
    (GatingSimulator, "next_loads", "workload.sample"),
    (LayeredDispatchPlan, "alltoall_durations", "network.alltoall_price"),
    (LayeredDispatchPlan, "alltoall_durations_resolved", "network.alltoall_price"),
    (SparseAllToAllPricer, "durations", "network.sparse_durations"),
    (SparseAllToAllPricer, "state_for", "network.sparse_state"),
    (IterationSimulator, "simulate_allreduce", "network.allreduce"),
    (IterationSimulator, "simulate_layer", "engine.layer0_self"),
    (ComputeModel, "moe_peak_arrays", "engine.rooflines"),
    (ServingSimulator, "step", "engine.step_self"),
    # ``plan`` calls ``heats`` too; that share is counted as trigger time.
    (StackedBalancer, "heats", "balancer.trigger"),
    (StackedBalancer, "imbalance_sum", "balancer.trigger"),
    (StackedBalancer, "evict_stale", "balancer.plan"),
    (StackedBalancer, "plan", "balancer.plan"),
    (StackedBalancer, "commit_many", "balancer.commit"),
    (ServingFrontend, "run", "serving.frontend_self"),
)
#: Module functions, wrapped where the calling module binds them.
FUNCTION_TARGETS = (
    (engine_iteration, "simulate_alltoall", "network.layer0_alltoall"),
    (engine_serving, "layered_dispatch_plan", "network.plan"),
    (engine_serving, "migration_route_arrays", "network.migration_route"),
    (engine_serving, "stacked_device_token_loads", "engine.load_stats"),
    (engine_serving, "split_migration", "balancer.split"),
)


def _install(patches: Patches, tracer) -> list:
    """Wrap every target; returns the list that collects dispatchers."""
    for owner, attr, name in METHOD_TARGETS:
        patches.wrap_method(tracer, owner, attr, name)
    for module, attr, name in FUNCTION_TARGETS:
        patches.wrap_function(tracer, module, attr, name)
    for attr, value in list(vars(ReplicaDispatcher).items()):
        if not attr.startswith("_") and (callable(value) or isinstance(value, property)):
            patches.wrap_method(tracer, ReplicaDispatcher, attr, "serving.dispatcher")
    dispatchers: list[ReplicaDispatcher] = []
    make = serving_frontend.ReplicaDispatcher

    def capture(*args, **kwargs):
        dispatcher = make(*args, **kwargs)
        dispatchers.append(dispatcher)
        return dispatcher

    patches.replace(serving_frontend, "ReplicaDispatcher", capture)
    return dispatchers


def _traced(body):
    """Run ``body(rep, tracer, seeds, dispatchers)`` with the wrappers in
    place when ``tracer`` records spans, and restore them afterwards."""

    def run(rep: Rep, tracer, seeds: Seeds) -> None:
        if not isinstance(tracer, Tracer):
            body(rep, tracer, seeds, None)
            return
        patches = Patches()
        try:
            dispatchers = _install(patches, tracer)
            body(rep, tracer, seeds, dispatchers)
        finally:
            patches.restore()

    return run


# -- shared construction --------------------------------------------------------


def _model(num_experts: int):
    return replace(QWEN3_235B, name=f"qwen3-{num_experts}e", num_experts=num_experts)


def _simulator(system, model, tokens: int, layers: int, seed: int, balancer, iterations):
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=tokens,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=60),
        num_layers=layers,
        seed=seed,
    )
    return ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        balancer,
        engine_config=EngineConfig(tokens_per_group=tokens),
        serving_config=ServingConfig(num_iterations=iterations),
    )


def _pricer_counters(simulator: ServingSimulator) -> dict:
    mapping = simulator.mapping
    if not simulator.sparse_pricing:
        return {
            "network.state_rebuilds": 0,
            "network.dest_row_builds": 0,
            "network.operator_mib": dense_operator_nbytes(mapping) / MIB,
        }
    pricer = sparse_alltoall_pricer(mapping)
    return {
        "network.state_rebuilds": pricer.state_rebuilds,
        "network.dest_row_builds": pricer.dest_row_builds,
        "network.operator_mib": pricer.peak_operator_nbytes / MIB,
    }


# -- closed loops ---------------------------------------------------------------


def _closed(build, num_experts: int, iterations: int, steady_skip: int, sparse: bool):
    """A closed loop of ``iterations`` fixed-batch steps per repetition;
    simulated means skip the first ``steady_skip`` iterations."""

    def body(rep: Rep, tracer, seeds: Seeds, _dispatchers) -> None:
        model = _model(num_experts)
        start = time.perf_counter()
        with tracer.span("setup.system"):
            system = build(model)
        with tracer.span("setup.simulator"):
            simulator = _simulator(
                system, model, 128, 58, seeds.gating, GreedyBalancer, iterations
            )
        clock = StepClock(simulator, tracer)
        records = []

        def step() -> None:
            rep.begin(1)
            record = simulator.step()
            rep.end(0 if positive_finite(record.latency) else 1)
            records.append(record)

        with tracer.span("setup.first_step"):
            step()
        rep.setup_s = time.perf_counter() - start
        for _ in range(iterations - 1):
            step()
        rep.step_s = clock.durations[1:]
        rep.cycle_s = clock.cycles[1:]
        rep.measured_s = math.fsum(rep.cycle_s)

        check(rep, len(records) == iterations, f"ran {len(records)} of {iterations} iterations")
        check(
            rep,
            all(positive_finite(r.latency) for r in records),
            "an iteration latency is not positive and finite",
        )
        check(
            rep,
            simulator.sparse_pricing == sparse,
            f"auto rule picked sparse_pricing={simulator.sparse_pricing}",
        )
        rep.digest = digest(records)
        trace = ServingTrace(records=records, num_sparse_layers=model.num_sparse_layers)
        rep.sim = {
            "sim_iter_ms": trace.mean_latency(steady_skip) * 1e3,
            "sim_load_ratio": trace.mean_load_ratio(steady_skip),
        }
        steady = records[1:]
        rep.counters = {
            **_pricer_counters(simulator),
            "balancer.migrations": sum(r.migrations_started for r in steady),
            "balancer.triggers": sum(1 for r in steady if r.triggered),
        }

    return _traced(body)


CLOSED64 = Workload(
    name="closed64_greedy",
    run=_closed(
        lambda model: build_wsc(model, side=8, tp=4, mapping="er"),
        num_experts=64,
        iterations=300,
        steady_skip=50,
        sparse=False,
    ),
    min_reps=6,
    checks_p99=True,
)
CLOSED1024 = Workload(
    name="closed1024_sparse",
    run=_closed(
        lambda model: build_multi_wsc(model, 4, 16, tp=16, mapping="her"),
        num_experts=256,
        iterations=3,
        steady_skip=1,
        sparse=True,
    ),
    min_reps=2,
    checks_p99=False,
)


# -- open loop ------------------------------------------------------------------

OPEN_REQUESTS = 256
TTFT_DEADLINE_S = 0.05


def _open(rep: Rep, tracer, seeds: Seeds, dispatchers) -> None:
    model = _model(64)
    start = time.perf_counter()
    with tracer.span("setup.system"):
        system = build_wsc(model, side=8, tp=4, mapping="er")
    with tracer.span("setup.simulator"):
        simulator = _simulator(system, model, 64, 4, seeds.gating, NonInvasiveBalancer, 30)
        frontend = ServingFrontend(
            simulator,
            PoissonArrivals(rate=500.0, seed=seeds.arrival),
            FrontendConfig(
                num_requests=OPEN_REQUESTS,
                seed=seeds.shape,
                max_queue_requests=32,
                max_requests_per_backend=4,
                ttft_deadline_s=TTFT_DEADLINE_S,
            ),
        )
    rep.setup_s = time.perf_counter() - start
    clock = StepClock(simulator, tracer)
    rep.begin(OPEN_REQUESTS)
    start = time.perf_counter()
    trace = frontend.run()
    rep.measured_s = time.perf_counter() - start
    summary = trace.summary()
    rep.end(summary.rejected + summary.unfinished)
    rep.step_s = clock.durations
    rep.cycle_s = clock.cycles

    records = trace.iteration_records
    completed = [r for r in trace.requests if r.completed]
    check(rep, summary.arrived == OPEN_REQUESTS, f"{summary.arrived} of {OPEN_REQUESTS} arrived")
    check(
        rep,
        summary.arrived == summary.completed + summary.rejected + summary.unfinished,
        f"request conservation broken: {summary}",
    )
    check(
        rep,
        all(positive_finite(r.ttft_s) and positive_finite(r.tpot_s) for r in completed),
        "a TTFT or TPOT is not positive and finite",
    )
    check(
        rep,
        all(positive_finite(r.latency) for r in records),
        "an iteration latency is not positive and finite",
    )
    check(rep, not simulator.sparse_pricing, "auto rule picked the sparse operator")
    rep.digest = digest([*trace.requests, *records])
    rep.sim = {
        "sim_iter_ms": statistics.fmean(r.latency for r in records) * 1e3,
        "sim_load_ratio": statistics.fmean(r.load_ratio for r in records),
        "serving.sim_ttft_p50_ms": summary.ttft_p50_s * 1e3,
        "serving.sim_ttft_p99_ms": summary.ttft_p99_s * 1e3,
        "serving.sim_tpot_p50_ms": summary.tpot_p50_s * 1e3,
        "serving.sim_goodput_rps": summary.goodput_rps,
    }
    rep.counters = {
        **_pricer_counters(simulator),
        "balancer.migrations": sum(r.migrations_started for r in records),
        "balancer.triggers": sum(1 for r in records if r.triggered),
        "serving.resolved": summary.completed + summary.rejected,
        "serving.completed": summary.completed,
        "serving.rejected": summary.rejected,
        "serving.dispatches": sum(
            (r.backend is not None) + r.redispatches for r in trace.requests
        ),
        "serving.batch_tokens_mean": statistics.fmean(clock.batch_tokens),
    }
    if dispatchers is not None:
        # Tokens still charged to backends after the run drained: every
        # completed request's tokens should have been released.
        rep.counters["serving.residual_queue_tokens"] = math.fsum(
            backend.queue_tokens for d in dispatchers for backend in d.backends
        )


OPEN64 = Workload(
    name="open64_poisson",
    run=_traced(_open),
    min_reps=8,
    checks_p99=True,
)

WORKLOADS = {w.name: w for w in (CLOSED64, CLOSED1024, OPEN64)}
