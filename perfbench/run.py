"""calbound benchmark: one workload, end-to-end or per-layer metrics as JSON.

    python3 perfbench/run.py --workload estimate --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout, never from an installed copy. Set-up is timed in separate fresh
processes, then one more fresh process sets up and times passes of the
workload for ``--seconds``; every process runs with one BLAS thread. Times
are scaled to the speed of a reference kernel (see ``reference.py``). The last
line of standard output is the result object; the line before it is the run
record (environment stamp, named phases, digests, failures). ``--trace 1``
reports the per-layer metrics of a traced run instead, and writes its spans
under ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Process start and imports vary by about 10 % from one process to the next,
# independently of the reference kernel, so set-up is sampled many times.
SETUP_SAMPLES = 9
WORKLOADS = ("estimate", "recalibrate", "dump")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The reference kernel also runs here, between set-up samples, so this
# process pins BLAS to one thread like its workers before numpy loads.
os.environ.update({var: "1" for var in THREAD_VARS})

import reference  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list, env: dict, timeout: float) -> tuple[float, dict]:
    """Start the worker; returns its start time (monotonic) and its JSON."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {argv} timed out after {timeout:.0f}s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def stamp() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "git_commit": commit,
        "loadavg_at_start": list(os.getloadavg()),
        "thread_vars": {var: "1" for var in THREAD_VARS},
    }


def reference_digests(workload: str, seed: int, scale: str):
    """Digests recorded on the default seed, or None where none were recorded."""
    path = HERE / "digests.json"
    if seed != 0 or scale != "full" or not path.exists():
        return None
    return json.loads(path.read_text()).get(workload)


def measure(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "calbound" / "__init__.py").is_file():
        raise BenchError(f"no calbound package under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "stamp": stamp()}
    # Paths handed to the program are relative to the checkout, so that
    # outputs that echo them digest the same in every checkout.
    out_dir = Path(".perfbench_run")
    workdir = out_dir / args.workload
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
            "--workdir", str(workdir)]
    try:
        # Each set-up sample is scaled by the reference kernel timed just
        # before and just after it (median of three), so a slow stretch of
        # the machine during one sample does not move the median.
        def gauge():
            return statistics.median(reference.measure() for _ in range(3))

        kernels = [gauge()]
        raw_setup_s, setup_s, import_s = [], [], []
        for _ in range(SETUP_SAMPLES):
            started, ready = spawn(base + ["--seconds", "0", "--setup-only"], env, 120)
            kernels.append(gauge())
            raw_setup_s.append(ready["ready"] - started)
            setup_s.append(raw_setup_s[-1] * reference.REFERENCE_S
                           / statistics.mean(kernels[-2:]))
            import_s.append(ready["import_s"])
        spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        _, res = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--spans", str(spans)], env, args.seconds + 140)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    attempted = res["attempted"] + SETUP_SAMPLES
    failed = len(res["failures"])
    record.update(
        versions=res["versions"], passes=res["passes"], speed_factor=res["speed_factor"],
        raw_pass_walls=res["raw_pass_walls"], raw_pass_phases=res["raw_pass_phases"],
        named_phases=dict(zip(res["phase_names"], res["phases"])),
        setup_samples=setup_s, raw_setup_samples=raw_setup_s, setup_kernels=kernels,
        error_rate=failed / attempted, failures=res["failures"],
        digests=res["digests"], notes=res["notes"],
    )
    expected = reference_digests(args.workload, args.seed, args.scale)
    record["digests_match"] = None if expected is None else expected == res["digests"]

    if args.trace:
        names = bench["per_layer"]
        # Phase times come from the untraced half; phases of other workloads read 0.
        phases = {f"phase.{name}": v for name, v in zip(res["phase_names"], res["phases"])}
        values = dict(res["layers"], **{"startup.import_s": statistics.median(import_s)})
        values.update({m["name"]: phases.get(m["name"], 0.0) for m in names
                       if m["name"].startswith("phase.")})
        record["layers_seen"] = res["layers_seen"]
        record["traced_passes"] = res["traced_passes"]
    else:
        names = bench["end_to_end"]
        values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": res["peak_rss_mb"]}
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at small sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        record, result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
