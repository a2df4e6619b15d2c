"""Command-line front end.

Exit codes: 0 on success, 2 for validation problems (bad flags or flag values
the parser rejects, malformed dumps or specs, impossible configs), 3 when an
experiment grid cell fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..bounds import BoundInputs, BoundKind, evaluate_bound
from ..core import ValidationError
from ..ece import ece_full_k, ece_top_label, optimal_bins_1d, optimal_bins_per_dim
from ..recal import FAMILIES, PbrConfig
from ..synthetic import spec_from_json
from .experiments import (
    METHODS,
    ExperimentCellError,
    _generate,
    compare_methods,
    convergence_experiment,
    fit_method,
    kl_gap_experiment,
)
from .io import MODES, _resolve_format, load_dump, write_dump


def _write(text: str, out: str | None) -> None:
    """Write output text to the --out file, or to stdout when it is omitted."""
    if out:
        Path(out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    """Write a result object as JSON."""
    _write(json.dumps(payload, indent=2, allow_nan=False) + "\n", out)


def _comma_list(item):
    """An argparse type: comma-separated item values, blank entries skipped."""
    def parse(text: str) -> list:
        try:
            return [item(x.strip()) for x in text.split(",") if x.strip()]
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"bad list {text!r}: {err}")
    return parse


def _lam(text: str):
    """An argparse type: "auto" or a number."""
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}")


def _given(args, *names) -> dict:
    """The named flags the command line gave; each one omitted takes the library's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _add_seed(parser: argparse.ArgumentParser, default=None) -> None:
    parser.add_argument("--seed", type=int, default=default, help="master seed")


def _add_source(parser: argparse.ArgumentParser) -> None:
    """The data-source flags shared by klgap and compare."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--dump")
    parser.add_argument("--family", choices=FAMILIES)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (stdout when omitted)")


def _add_report_output(parser: argparse.ArgumentParser) -> None:
    """An experiment report is JSON, or its per-cell rows as a CSV table."""
    _add_out(parser)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _load_spec(path: str):
    return spec_from_json(Path(path).read_text())


def _cmd_ece(args) -> int:
    dump = load_dump(args.dump)
    data = dump.data
    if args.full_k:
        bins = optimal_bins_per_dim(data.n, data.num_classes) if args.bins is None else args.bins
        value = ece_full_k(data, bins)
        estimator = "full_k"
    else:
        bins = optimal_bins_1d(data.n) if args.bins is None else args.bins
        value = ece_top_label(data, bins)
        estimator = "top_label"
    _emit(
        {"ece": value, "estimator": estimator, "bins": bins,
         "n": data.n, "num_classes": data.num_classes, "source": dump.source},
        args.out,
    )
    return 0


def _cmd_synthesize(args) -> int:
    spec = _load_spec(args.spec)
    fmt = _resolve_format(Path(args.out))  # a bad suffix is refused before the draw
    data = _generate(spec, spec.n if args.n is None else args.n, spec.rng)
    write_dump(data, args.out, fmt, **_given(args, "mode"))
    print(f"wrote {data.n} rows x {data.num_classes} classes to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    inputs = BoundInputs(
        n=args.n,
        num_bins=args.bins,
        epsilon=args.epsilon,
        num_classes=args.classes,
        assume_density=args.assume_density,
        **_given(args, "lipschitz", "lam", "kl"),
    )
    cert = evaluate_bound(BoundKind(args.kind), inputs, **_given(args, "empirical_term"))
    _emit(cert.to_dict(), args.out)
    return 0


def _cmd_recalibrate(args) -> int:
    """One compare-cell fit on the whole dump, with --alpha as a one-entry grid."""
    dump = load_dump(args.dump)
    cfg = PbrConfig(**_given(args, "family", "alpha"))
    fitted, result = fit_method(args.method, dump.data, cfg, [cfg.alpha], args.seed)
    payload: dict = {"source": dump.source, "n": dump.data.n, "num_classes": dump.data.num_classes,
                     "method": args.method, "map": fitted.to_dict()}
    if result is not None:
        payload["posterior"] = result.posterior.to_dict()
        payload["kl"] = result.kl
        payload["final_objective"] = result.final_objective
        payload["steps"] = result.steps
        payload["stop_reason"] = result.stop_reason
        payload["config"] = result.cfg.to_dict()
    _emit(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    """Run one experiment; write its report as JSON or as its per-cell CSV table."""
    if args.which == "convergence":
        report = convergence_experiment(
            _load_spec(args.spec),
            args.n_grid,
            args.seeds,
            **_given(args, "bin_rule", "workers"),
        )
    else:
        source = _load_spec(args.spec) if args.spec else load_dump(args.dump)
        cfg = PbrConfig(**_given(args, "family"))
        if args.which == "klgap":
            report = kl_gap_experiment(
                source, cfg=cfg, **_given(args, "alpha_grid", "replicates", "n_re", "seed"))
        else:
            report = compare_methods(
                source, cfg=cfg, **_given(args, "methods", "folds", "n_re", "n_te", "seed"))
    _write(report.cells_csv() if args.format == "csv" else report.to_json() + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, and subparsers, that take a long flag only as spelled in full.

    With prefix matching, convergence would read a stray --seed as --seeds.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="calbound",
        description="Calibration-error estimation, certificates, and recalibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ece", help="estimate calibration error of a dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--bins", type=int)
    p.add_argument("--full-k", action="store_true", help="bin the full probability vector")
    _add_out(p)
    p.set_defaults(fn=_cmd_ece)

    p = sub.add_parser("synthesize", help="generate a dump from a spec JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, help="override the spec sample count")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", required=True,
                   help="dump path; .csv, .jsonl, .ndjson or .npz picks the format")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("bounds", help="evaluate a certificate")
    p.add_argument("--kind", choices=[kind.value for kind in BoundKind], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--lipschitz", type=float)
    p.add_argument("--lam", type=_lam, help="'auto' or a positive number")
    p.add_argument("--kl", type=float)
    p.add_argument("--classes", type=int)
    p.add_argument("--assume-density", action="store_true")
    p.add_argument("--empirical", type=float, dest="empirical_term", metavar="EMPIRICAL",
                   help="empirical loss-plus-Brier term for the joint bound")
    _add_out(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("recalibrate", help="fit a recalibration map to a dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--method", choices=METHODS, default="temperature")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--alpha", type=float)
    _add_seed(p, default=0)
    _add_out(p)
    p.set_defaults(fn=_cmd_recalibrate)

    p = sub.add_parser("experiment", help="run a replayable experiment")
    which = p.add_subparsers(dest="which", required=True)

    c = which.add_parser("convergence", help="estimator bias against sample size")
    c.add_argument("--spec", required=True)
    c.add_argument("--n-grid", type=_comma_list(int), required=True,
                   help="comma-separated sample sizes")
    c.add_argument("--seeds", type=int, default=20)
    c.add_argument("--bins", type=int, dest="bin_rule", metavar="BINS",
                   help="fixed bin count (default: optimal rule)")
    c.add_argument("--workers", type=int)
    _add_report_output(c)
    c.set_defaults(fn=_cmd_experiment)

    k = which.add_parser("klgap", help="posterior KL against the train/test ECE gap")
    _add_source(k)
    k.add_argument("--alpha-grid", type=_comma_list(float), help="comma-separated alpha values")
    k.add_argument("--replicates", type=int)
    k.add_argument("--n-re", type=int)
    _add_seed(k)
    _add_report_output(k)
    k.set_defaults(fn=_cmd_experiment)

    m = which.add_parser("compare", help="score recalibration methods on held-out data")
    _add_source(m)
    m.add_argument("--methods", type=_comma_list(str),
                   help=f"comma-separated subset of {','.join(METHODS)}")
    m.add_argument("--folds", type=int)
    m.add_argument("--n-re", type=int)
    m.add_argument("--n-te", type=int)
    _add_seed(m)
    _add_report_output(m)
    m.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ExperimentCellError as err:
        print(f"experiment cell failed: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
