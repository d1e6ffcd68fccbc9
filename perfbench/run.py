"""Host-speed and simulated-result benchmark of the MoE-on-wafer simulator.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload closed64_greedy --seed 0 --seconds 10 --trace 0

``--workload`` is one of ``closed64_greedy``, ``closed1024_sparse`` and
``open64_poisson`` (see ``perfbench/workloads.py``).  ``--seed 0`` uses the
tracked records' seeds (gating 41, arrivals 11, request shapes 5);
``--seed n`` offsets each by ``n``.  Seeds 1000-1009 are held out: use them
only to check a claimed gain, never while developing one.

``--trace 0`` measures untraced repetitions until ``--seconds`` have passed
and reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer split: host self seconds and
call counts of each layer's public entry points over the steady loop, the
set-up phases, program counters, and the tracing overhead.  Spans of the
traced repetitions are written to ``perfbench/out/``.

Every run checks its outputs (iteration and request counts, request
conservation, positive finite latencies, the auto-selected pricing
operator, identical simulated-trace digests across repetitions, traced
ones included) and prints a record line with the seeds, sample counts,
digests and the environment, then one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only for a
correct run.
"""

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def cap_threads() -> dict:
    """Cap native thread pools at the CPUs this process may use.

    Must run before numpy is imported; returns the caps it set.
    """
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
        caps[var] = cap
    return caps


def fingerprint(caps: dict) -> dict:
    import numpy
    import scipy

    from repro.workload import sampling

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "sampling_backend": sampling.resolve_backend(None),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "machine": platform.machine(),
    }


def parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    caps = cap_threads()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import harness
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"pick from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seeds = workloads.seeds_for(args.seed)
    outcome = harness.measure(
        lambda rep, tracer: workload.run(rep, tracer, seeds),
        seconds=args.seconds,
        min_reps=workload.min_reps,
        traced=bool(args.trace),
    )
    errors = outcome.errors()
    if outcome.crash is not None:
        print(outcome.crash[1], file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seeds": vars(seeds),
        "seconds": args.seconds,
        "trace": args.trace,
        "digests": sorted({rep.digest for rep in outcome.reps + outcome.traced}),
        "errors": errors,
        "environment": fingerprint(caps),
    }
    metrics, units = {}, {}
    if not errors:
        if args.trace:
            units = harness.per_layer_names(workloads.LAYERS)
            metrics = harness.per_layer(outcome.reps, outcome.traced, workloads.LAYERS)
            record["traced_repetitions"] = len(outcome.traced)
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            spans_file = out / f"{workload.name}.seed{args.seed}.spans.json"
            with spans_file.open("w") as handle:
                json.dump({"record": record, "spans": [r.spans for r in outcome.traced]}, handle)
        else:
            units = harness.END_TO_END
            metrics, details = harness.end_to_end(outcome.reps)
            record.update(details)
            if workload.checks_p99 and not details["p99_supported"]:
                errors.append("too few step samples beyond the p99")

    correct = not errors
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>16.6f} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
