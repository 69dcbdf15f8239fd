"""Command-line entry point.

Subcommands: run, sweep, oracle, compare, smoke.  Configs are JSON files
(see README for the schema); MGDM_LOG sets the log level.

Exit codes: 0 success (for ``compare``: statistical pass), 1 usage or
config error (an unusable ``--out`` too), 2 runtime failure, 3 statistical
fail in ``compare``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import harness

log = logging.getLogger("mgdm")


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on a config error; argparse's own 2 is the runtime-failure code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    if not text.lstrip("-").isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"N must be an integer >= 1, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mgdm", description="Guided-diffusion posterior sampling harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute n_runs seeded sampler runs")
    _add_common(p_run)
    p_run.add_argument("--backend", choices=["exact", "vi", "vi-mh"], default=None)

    p_sweep = sub.add_parser("sweep", help="sweep over R / G / index axes")
    _add_common(p_sweep)

    p_oracle = sub.add_parser("oracle", help="evaluate the Gaussian-case moment recursion")
    _add_common(p_oracle)

    p_cmp = sub.add_parser("compare", help="z-score sampler output against the moment oracle")
    _add_common(p_cmp)
    p_cmp.add_argument("--backend", choices=["exact", "vi", "vi-mh"], default=None)
    p_cmp.add_argument(
        "--measure-vi-error",
        action="store_true",
        help="allow an approximate backend; report the whole chain's discrepancy (VI and DDPM), no pass/fail",
    )

    p_smoke = sub.add_parser("smoke", help="run the built-in 1-D smoke configuration")
    _add_common(p_smoke, config_required=False)
    for p in (p_run, p_sweep, p_smoke):
        p.add_argument("--jobs", type=_jobs, default=1, metavar="N", help="concurrent runs, N >= 1 (default 1)")
    return parser


def _load(args) -> dict:
    config = harness.smoke_config() if args.config is None else harness.load_config(args.config)
    if args.seed is not None:
        config["master_seed"] = int(args.seed)
    backend = getattr(args, "backend", None)
    if backend is not None:
        config.setdefault("sampler", {})["backend"] = backend
    return config


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("MGDM_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command in ("run", "smoke"):
            started = time.perf_counter()
            summary = harness.run_experiment(config, args.out, jobs=args.jobs)
            agg = summary["aggregate"]
            diverged = set(agg["diverged_runs"])
            for run_id in range(agg["n_runs"]):
                print(f"run {run_id}: {'diverged' if run_id in diverged else 'ok'}")
            print(
                f"{agg['n_runs']} runs in {time.perf_counter() - started:.2f}s; "
                f"mean_error={agg.get('mean_error', float('nan')):.4g} "
                f"sliced_w2={agg.get('sliced_w2', float('nan')):.4g} diverged_frac={agg['diverged_frac']:.4g}"
            )
            return 0
        if args.command == "sweep":
            summary = harness.run_sweep(config, args.out, jobs=args.jobs)
            for row in summary["rows"]:
                print(
                    f"R={row['R']} G={row['G']} index={row['index_dist']}: "
                    f"sliced_w2={row['sliced_w2']:.4g} nonincreasing={row['sw2_nonincreasing']}"
                )
            return 0
        if args.command == "oracle":
            report = harness.run_oracle(config, args.out)
            print(json.dumps({"mean": report["mean"], "index_sequence": report["index_sequence"]}))
            return 0
        if args.command == "compare":
            report = harness.compare_to_oracle(config, args.out, measure_vi_error=args.measure_vi_error)
            if report["passed"] is None:
                print(f"vi-error report: mean_rel_error={report['mean_rel_error']:.4g}")
                return 0
            peak = np.abs(np.concatenate([np.ravel(report["z_mean"]), np.ravel(report["z_cov"])])).max()
            print(f"compare: passed={report['passed']} max|z|={peak:.3f}")
            return 0 if report["passed"] else 3
        raise AssertionError("unreachable")
    except (RuntimeError, np.linalg.LinAlgError) as err:  # LinAlgError first: it subclasses ValueError
        print(f"mgdm: runtime failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as err:  # OSError: a missing config, an unusable --out
        print(f"mgdm: config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
