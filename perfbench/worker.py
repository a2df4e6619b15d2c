"""One workload in a fresh process: set up, then time passes for a budget.

Started by ``run.py`` with the thread variables and ``PYTHONPATH`` already
set; prints one JSON object on standard output. With ``--setup-only`` it stops
once the inputs are built and reports the monotonic time it got there, which
the parent compares with the time it started the process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def run_passes(workload, budget: float) -> list:
    """Run passes until they have taken the budget; the last one may overrun it.

    The checks after each pass do not count against the budget. Returns one
    ``(first, last)`` range of ``workload.timings`` per pass, and the pass's
    spans when tracing.
    """
    passes = []
    spent = 0.0
    while spent < budget:
        workload.ledger.pass_index += 1
        tracer = workload.tracer
        first, first_span = len(workload.timings), len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        outputs = workload.run_pass()
        spent += time.perf_counter() - start
        passes.append({"ops": (first, len(workload.timings)),
                       "spans": tracer.spans[first_span:] if tracer else None})
        if tracer:
            tracer.op = "check"
        workload.check(outputs)
    return passes


def pass_times(workload, passes: list, values: list) -> list:
    """``(phases, wall, cli)`` of each pass, from one value per timed operation."""
    out = []
    for p in passes:
        first, last = p["ops"]
        ops = {workload.timings[i][0]: values[i] for i in range(first, last)}
        phases, wall = workload.pass_times(ops)
        out.append((phases, wall, sum(t for op, t in ops.items() if op.startswith("cli_"))))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import calbound  # noqa: F401  (timed: the package import is part of set-up)
    import_s = time.perf_counter() - start

    import numpy as np
    import scipy

    import reference
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    workload.setup()
    ready = time.monotonic()
    result = {"ready": ready, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(workload, budget)
    raw = pass_times(workload, plain, [t[3] for t in workload.timings])
    scaled = pass_times(workload, plain, reference.scale(workload.timings, workload.kernels))
    result.update(
        speed_factor=reference.factor(workload.kernels),
        wall_s=statistics.median(wall for _, wall, _ in scaled),
        phases=[statistics.median(p[i] for p, _, _ in scaled)
                for i in range(len(workload.phases))],
        phase_names=list(workload.phases),
        passes=len(plain),
        raw_pass_walls=[wall for _, wall, _ in raw],
        raw_pass_phases=[p for p, _, _ in raw],
    )
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        workload.tracer = tracer
        tracer.op = "setup"
        workload.setup()
        traced = run_passes(workload, budget)
        tracer.uninstall()
        tracer.write(args.spans)
        traced_raw = pass_times(workload, traced, [t[3] for t in workload.timings])
        layers = tracing.median_metrics([tracing.layer_metrics(p["spans"]) for p in traced])
        # CLI calls are processes untraced and in-process traced, so the
        # overhead compares the rest of the pass, and their difference is the
        # CLI's process start-up. Like the spans, these are unscaled times.
        layers["trace.overhead_s"] = (
            statistics.median(wall - cli for _, wall, cli in traced_raw)
            - statistics.median(wall - cli for _, wall, cli in raw))
        layers["cli.startup_s"] = statistics.median(cli for _, _, cli in raw) - statistics.median(
            sum(s[3] - s[2] for s in p["spans"] if s[1] == "cli.main") for p in traced)
        result.update(layers=layers, traced_passes=len(traced),
                      layers_seen=sorted(tracing.layers_seen(tracer.spans)))

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=workload.ledger.attempted,
        failures=workload.ledger.failed,
        digests=workload.digests,
        notes=workload.notes,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
