"""The three benchmark workloads: inputs made from a seed, a timed pass, checks.

Every call into calbound goes through a module attribute (``ex.compare_methods``
rather than a name imported here), so the wrappers that the traced run
installs in the calbound modules see the benchmark's own calls too.

The default seed 0 reproduces the seeds of ``tests/test_acceptance.py``; seed s
moves each spec to stream s of the same master seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.resources
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import calbound.bounds as bd
import calbound.ece as ece
import calbound.harness.cli as cli
import calbound.harness.experiments as ex
import calbound.harness.io as dio
import calbound.recal as rc
import calbound.synthetic as syn
from calbound import (
    BinarySpec,
    BoundInputs,
    BoundKind,
    ConfidenceLaw,
    GaussianPosterior,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    PbrConfig,
    PredictionSet,
    Rng,
)
from calbound.harness.report import REPORT_SCHEMA
from calbound.recal import identity_params

import reference

WORKERS = 2
EPSILON = 0.05
ALL_METHODS = ("uncalibrated", "temperature", "pbr", "pbr_total")
# One more than train_pbr's patience: no affine fit stops before this step.
AFFINE_STEPS = 51

# Sizes per scale. "full" is the measured benchmark; "tiny" is the self-test.
SIZES = {
    "full": {
        "n_grid": [500, 1000, 2500, 5000, 10_000, 25_000, 50_000],
        "grid_seeds": 50,
        "oracle_samples": 1_000_000,
        "coverage_trials": 3000,
        "klgap_alphas": (0.0, 0.5, 1.0),
        "klgap_replicates": 3,
        "n_re": 1000,
        "compare_alphas": (0.25, 1.0),
        "folds": 3,
        "max_iters": None,
        "dump_n": 2000,
        "dump_k": 100,
        "io_rounds": 3,
    },
    "tiny": {
        "n_grid": [100, 200, 1000, 4000],
        "grid_seeds": 20,
        "oracle_samples": 20_000,
        "coverage_trials": 40,
        "klgap_alphas": (0.0, 1.0),
        "klgap_replicates": 1,
        "n_re": 100,
        "compare_alphas": (1.0,),
        "folds": 2,
        "max_iters": 20,
        "dump_n": 60,
        "dump_k": 10,
        "io_rounds": 2,
    },
}


class Ledger:
    """Counts the operations of a run and the ones that failed.

    An operation fails when it raises, when a CLI call exits non-zero, or when
    a check of its output fails; it counts once however many checks fail.
    """

    def __init__(self):
        self.attempted = 0
        self.pass_index = 0
        self.failed: dict = {}

    def fail(self, op: str, reason: str) -> None:
        self.failed.setdefault(f"{self.pass_index}:{op}", reason)

    def check(self, op: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(op, what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return value is not None


class Workload:
    """One workload: set-up from a seed, then repeated timed passes.

    ``run_pass`` runs the pass's operations through :meth:`timed`, which
    appends ``(op, start, end, seconds)`` to ``timings`` and times the
    reference kernel after it when none was timed in the last
    ``reference.EVERY_S`` seconds, and returns their outputs; ``check`` compares
    the outputs with what they must be. ``phases`` names each phase and the
    operations it sums; ``pass_times`` turns one pass's operation times into
    the phase times (``phase{i}_s``) and the pass time ``wall_s``.
    """

    phases: dict = {}

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.scale = scale
        self.size = SIZES[scale]
        self.workdir = workdir
        self.tracer = None
        self.ledger = Ledger()
        self.timings: list = []
        self.kernels: list = []
        self.digests: dict = {}
        self.notes: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, op: str, fn, *args, **kwargs):
        """Run and time one operation; returns its result, or None when it raised."""
        self.ledger.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.ledger.fail(op, traceback.format_exc(limit=3))
            result = None
        end = time.perf_counter()
        self.timings.append((op, start, end, end - start))
        if not self.kernels or end - self.kernels[-1][0] >= reference.EVERY_S:
            self.kernels.append((time.perf_counter(), reference.measure()))
        return result

    def pass_times(self, op_times: dict) -> tuple[list, float]:
        """Phase times and pass time from one pass's operation times."""
        phases = [sum(op_times[op] for op in ops) for ops in self.phases.values()]
        return phases, sum(op_times.values())

    def record(self, name: str, text: str) -> None:
        """Keep the digest of a canonical output; later passes must repeat it."""
        value = digest(text)
        if self.digests.setdefault(name, value) != value:
            self.notes.setdefault("digest_changed_between_passes", []).append(name)

    def check_report(self, op: str, text) -> None:
        """Validate a serialized report against the schema and record its digest."""
        import jsonschema

        if text is None:
            return
        doc = json.loads(text)
        try:
            jsonschema.validate(doc, REPORT_SCHEMA)
        except jsonschema.ValidationError as err:
            self.ledger.fail(op, f"report schema: {err.message}")
        self.ledger.check(op, _finite(doc["summary"]), "summary has a non-finite value")
        self.record(op, text)

    def check_reformulation(self, op: str, data) -> None:
        bins = ece.optimal_bins_1d(data.n)
        gap = abs(ece.ece_top_label(data, bins) - ece.ece_top_label_reformulated(data, bins))
        self.ledger.check(op, gap <= 1e-12, f"top-label ECE forms differ by {gap:.3g}")


def _serialized(experiment, *args, **kwargs):
    """Run an experiment and serialize its report, as a caller saving it would."""
    report = experiment(*args, **kwargs)
    return report, report.to_json()


class Estimate(Workload):
    """Criteria 2, 3 and 4: binary and K=3 convergence grids, bound coverage."""

    phases = {"conv_1d_s": ("conv_1d",), "conv_kd_s": ("conv_kd",),
              "coverage_s": ("coverage",)}

    def setup(self):
        s = self.seed
        self.binary = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95),
                                 MiscalibrationMap1D.sine(0.002, 2.0), 1000, Rng(7, s))
        self.multi = MulticlassSpec(3, (1.0, 1.0, 1.0), MiscalibrationMapK.mixture(0.02),
                                    1000, Rng(11, s))
        self.coverage = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95),
                                   MiscalibrationMap1D.sine(0.1, 2.0), 1000, Rng(2024, s))

    def run_pass(self):
        z = self.size
        conv_1d = self.timed("conv_1d", _serialized, ex.convergence_experiment, self.binary,
                             z["n_grid"], z["grid_seeds"], workers=WORKERS)
        conv_kd = self.timed("conv_kd", _serialized, ex.convergence_experiment, self.multi,
                             z["n_grid"], z["grid_seeds"], workers=WORKERS,
                             oracle_samples=z["oracle_samples"])
        cover = self.timed("coverage", bd.mc_validate_bound, BoundKind.TotalBiasTest,
                           self.coverage, num_bins=10, epsilon=EPSILON,
                           trials=z["coverage_trials"])
        return conv_1d, conv_kd, cover

    def check(self, outputs):
        conv_1d, conv_kd, cover = outputs
        for op, out in (("conv_1d", conv_1d), ("conv_kd", conv_kd)):
            if out is not None:
                self.check_report(op, out[1])
        if cover is not None:
            self.record("coverage", json.dumps(
                [cover.coverage, cover.certificate, cover.deviations.tolist()]))
        n_max = self.size["n_grid"][-1]
        self.check_reformulation("conv_1d", syn.gen_binary(syn.with_n(self.binary, n_max)))
        self.check_reformulation("conv_kd", syn.gen_multiclass(syn.with_n(self.multi, n_max)))
        if self.seed == 0 and self.scale == "full" and all(o is not None for o in outputs):
            slope_1d, slope_kd = conv_1d[0].summary["slope"], conv_kd[0].summary["slope"]
            self.ledger.check("conv_1d", -0.45 <= slope_1d <= -0.20,
                              f"binary slope {slope_1d:.4f} outside [-0.45, -0.20]")
            self.ledger.check("conv_kd", -0.35 <= slope_kd <= -0.08,
                              f"K=3 slope {slope_kd:.4f} outside [-0.35, -0.08]")
            # Criterion 4 is the coverage of the first 1000 trials.
            coverage = float(np.mean(cover.deviations[:1000] <= cover.certificate))
            self.ledger.check("coverage", coverage >= 0.95, f"coverage {coverage:.3f} below 0.95")


class Recalibrate(Workload):
    """Criterion-9-shaped KL-gap sweep (affine) and criterion-6 method comparison.

    ``train_pbr`` stops a fit once it has not improved for 50 steps, so no fit
    stops before step 51. The affine fits are capped there: every seed then
    runs the same number of affine steps, and ``klgap_affine_s`` measures the
    cost of a step. The comparison fits keep their step limit and stop early
    as the data lets them, so a change to when fits stop shows in the compare
    phases.
    """

    phases = {"klgap_affine_s": ("klgap_affine",),
              "compare_vector_scale_s": ("compare_vector_scale",),
              "compare_temperature_s": ("compare_temperature",)}

    def setup(self):
        s = self.seed
        z = self.size
        self.klgap_source = MulticlassSpec(10, (0.1,) * 10, MiscalibrationMapK.temperature(2.0),
                                           2000, Rng(5, s))
        self.klgap_cfg = PbrConfig(
            family="affine", step_size=0.1, step_decay=0.999,
            max_iters=z["max_iters"] or AFFINE_STEPS,
            prior=GaussianPosterior(identity_params("affine", 10), np.full(110, math.log(0.1))),
        )
        self.compare_source = MulticlassSpec(5, (1.0,) * 5, MiscalibrationMapK.temperature(2.0),
                                             1000, Rng(6, s))
        self.compare_cfgs = {
            family: PbrConfig(family=family, max_iters=z["max_iters"] or 300)
            for family in ("vector_scale", "temperature")
        }

    def run_pass(self):
        z = self.size
        out = [self.timed("klgap_affine", _serialized, ex.kl_gap_experiment,
                          self.klgap_source, alpha_grid=z["klgap_alphas"],
                          replicates=z["klgap_replicates"], n_re=z["n_re"],
                          cfg=self.klgap_cfg, seed=self.seed)]
        for family in ("vector_scale", "temperature"):
            out.append(self.timed(
                f"compare_{family}", _serialized, ex.compare_methods, self.compare_source,
                methods=ALL_METHODS, folds=z["folds"], n_re=z["n_re"], n_te=z["n_re"],
                cfg=self.compare_cfgs[family], alpha_grid=z["compare_alphas"], seed=self.seed))
        return tuple(out)

    def check(self, outputs):
        for (op,), out in zip(self.phases.values(), outputs):
            if out is not None:
                self.check_report(op, out[1])
        if "maps" not in self.digests:
            # Fitted maps on the first comparison fold, once per run.
            data_re, _ = ex._split_source(self.compare_source, self.size["n_re"],
                                          self.size["n_re"], 0, self.seed)
            fitted = rc.train_pbr(data_re, self.compare_cfgs["vector_scale"])
            scaled = rc.temperature_scaling_fit(data_re)
            self.record("maps", json.dumps([fitted.map.to_dict(), fitted.steps,
                                            scaled.to_dict()]))
            self.check_reformulation("compare_temperature", data_re)


class Dump(Workload):
    """Wide dumps through the text formats, then the CLI.

    The set is written as CSV probabilities and JSONL logits and read back,
    in a few rounds whose median gives the write and load times; the last
    round's CSV set is scored (top-label ECE, full-K ECE, a TotalBiasTest
    certificate), and the CLI runs ``ece`` and ``bounds`` on it and ``experiment compare`` on the
    bundled example dump. Untraced, each CLI call is a fresh process; traced,
    it goes in-process through ``calbound.harness.cli.main`` so its spans nest.
    """

    phases = {"write_s": ("write_csv", "write_jsonl"), "load_s": ("load_csv", "load_jsonl"),
              "cli_s": ("cli_ece", "cli_bounds", "cli_compare")}
    expected_compare = None
    expected_csv = None

    def setup(self):
        z = self.size
        spec = MulticlassSpec(z["dump_k"], (1.0,) * z["dump_k"],
                              MiscalibrationMapK.temperature(2.0), z["dump_n"], Rng(13, self.seed))
        self.data = syn.gen_multiclass(spec)
        self.csv = os.path.join(self.workdir, "probs.csv")
        self.jsonl = os.path.join(self.workdir, "logits.jsonl")
        self.bundled = os.path.relpath(
            importlib.resources.files("calbound") / "data" / "example_logits.csv")
        self.bins = ece.optimal_bins_1d(self.data.n)

    def cli(self, argv):
        """Run the CLI; returns its exit code and standard output."""
        if self.tracer is not None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "calbound", *argv], capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def certify(self, loaded):
        data = loaded.data
        top = ece.ece_top_label(data, self.bins)
        full = ece.ece_full_k(data, ece.optimal_bins_per_dim(data.n, data.num_classes))
        cert = bd.evaluate_bound(BoundKind.TotalBiasTest,
                                 BoundInputs(n=data.n, num_bins=self.bins, epsilon=EPSILON))
        return top, full, cert

    def run_pass(self):
        loaded = []
        for r in range(self.size["io_rounds"]):
            self.timed(f"write_csv.{r}", dio.write_dump, self.data, self.csv, "csv", "probs")
            self.timed(f"write_jsonl.{r}", dio.write_dump, self.data, self.jsonl, "jsonl", "logits")
            loaded.append((self.timed(f"load_csv.{r}", dio.load_dump, self.csv),
                           self.timed(f"load_jsonl.{r}", dio.load_dump, self.jsonl)))
        from_csv = loaded[-1][0]
        scored = self.timed("certify", self.certify, from_csv) if from_csv else None
        calls = {
            "cli_ece": ["ece", "--dump", self.csv],
            "cli_bounds": ["bounds", "--kind", "total_bias_test", "--n", str(self.data.n),
                           "--bins", str(self.bins), "--epsilon", str(EPSILON)],
            "cli_compare": ["experiment", "compare", "--dump", self.bundled],
        }
        cli_out = {op: self.timed(op, self.cli, argv) for op, argv in calls.items()}
        return loaded, scored, cli_out

    def pass_times(self, op_times):
        """Write and load times are the median over the pass's IO rounds."""
        rounds = range(self.size["io_rounds"])
        write, load, cli = self.phases.values()
        phases = [statistics.median(sum(op_times[f"{op}.{r}"] for op in ops)
                                    for r in rounds) for ops in (write, load)]
        phases.append(sum(op_times[op] for op in cli))
        return phases, sum(op_times.values())

    def check(self, outputs):
        import jsonschema

        loaded, scored, cli_out = outputs
        data = self.data
        # The CSV holds every digit, so the loaded set is either the written
        # probabilities or what the program's constructor makes of them.
        if self.expected_csv is None:
            self.expected_csv = PredictionSet.from_probs(data.probs, data.labels).probs
        for r, (from_csv, from_jsonl) in enumerate(loaded):
            if from_csv is not None:
                probs = from_csv.data.probs
                self.ledger.check(f"load_csv.{r}", (np.array_equal(probs, data.probs)
                                                    or np.array_equal(probs, self.expected_csv))
                                  and np.array_equal(from_csv.data.labels, data.labels),
                                  "CSV round trip is not exact")
                self.notes["csv_max_abs_drift"] = float(
                    np.abs(from_csv.data.probs - data.probs).max())
                self.check_reformulation(f"load_csv.{r}", from_csv.data)
            if from_jsonl is not None:
                drift = float(np.abs(from_jsonl.data.probs - data.probs).max())
                self.ledger.check(f"load_jsonl.{r}", drift <= 1e-12
                                  and np.array_equal(from_jsonl.data.labels, data.labels),
                                  f"JSONL logits round trip drifts by {drift:.3g}")
        if scored is not None:
            top, full, cert = scored
            self.ledger.check("certify", math.isfinite(top) and math.isfinite(full)
                              and math.isfinite(cert.value), "non-finite score")
            self.record("certify", json.dumps([top, full, cert.to_dict()]))
        if self.expected_compare is None:
            self.expected_compare = json.loads(
                ex.compare_methods(dio.load_dump(self.bundled)).to_json())
        expected = {
            "cli_ece": None if scored is None else {
                "ece": scored[0], "estimator": "top_label", "bins": self.bins, "n": data.n,
                "num_classes": data.num_classes, "source": self.csv},
            "cli_bounds": None if scored is None else scored[2].to_dict(),
            "cli_compare": self.expected_compare,
        }
        for op, result in cli_out.items():
            if result is None:
                continue
            code, text = result
            if code != 0:
                self.ledger.fail(op, f"exit code {code}")
                continue
            try:
                got = json.loads(text)
            except json.JSONDecodeError:
                self.ledger.fail(op, "output is not JSON")
                continue
            self.ledger.check(op, got == expected[op], "CLI output differs from in-process")
            if op == "cli_compare":
                self.check_report(op, json.dumps(got, indent=2))
            else:
                self.record(op, json.dumps(got, sort_keys=True))


WORKLOADS = {"estimate": Estimate, "recalibrate": Recalibrate, "dump": Dump}
