"""mgdm benchmark: time one workload end to end, or trace it per module.

Run from the root of a checkout:

    python3 bench/run.py --workload bimodal-vi --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-module metrics.
The full result, with provenance, goes to
``bench/results/<workload>-seed<seed>-trace<0|1>.json``.  See
``bench/README.md`` for the workloads and how to compare two sets of
results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from reference import REF_S

WORKLOADS = ("bimodal-vi", "gmm-scale-vimh", "gauss-exact-compare", "cli-run-1d")
SETUP_REPS = 3  # processes that set up; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 60.0, 55.0, 50.0)
MIN_BEYOND = 10  # calls that must lie above the reported tail percentile
TIME_LIMIT_S = 170.0  # the whole run, children included

BENCH_DIR = Path(__file__).resolve().parent


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def run_child(role: str, args, workdir: Path, deadline: float, span_file: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if span_file is not None:
        cmd += ["--spans", str(span_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a workload process")
    # subprocess.run kills and reaps the child on timeout.
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process printed no report:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def tail(call_s: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with MIN_BEYOND calls above it.

    With fewer than 2 * MIN_BEYOND calls no percentile above the median has
    that many, and the median is reported.
    """
    ordered = sorted(call_s)
    for pct in TAIL_LADDER:
        value = quantile(ordered, pct)
        if sum(1 for x in ordered if x > value) >= MIN_BEYOND:
            return pct, value
    return 50.0, quantile(ordered, 50.0)


def quantile(ordered: list[float], pct: float) -> float:
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "mgdm").rglob("*.py")))


def scaled(wall_s: float, ref_s: float) -> float:
    """Wall time at the reference host speed (see reference.py)."""
    return wall_s * REF_S / ref_s


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    call_s = [scaled(wall, ref) for wall, ref in zip(report["call_s"], report["call_ref_s"])]
    samples = report["samples_per_call"] * len(call_s)
    pct, tail_value = tail(call_s)
    failed_frac = len(report["failures"]) / report["attempted"]
    metrics = {
        "setup_s": (statistics.median(scaled(wall, ref) for wall, ref in setups), "s"),
        "samples_per_s": (samples / sum(call_s) if call_s else 0.0, "1/s"),
        "call_s_p50": (statistics.median(call_s) if call_s else float("nan"), "s"),
        "call_s_tail": (tail_value if call_s else float("nan"), "s"),
        "sliced_w2": (report["sliced_w2"], "dist"),
        "ok_frac": (1.0 - failed_frac, "fraction"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    notes = {
        "calls_timed": len(call_s),
        "samples_per_call": report["samples_per_call"],
        "call_s_tail_percentile": pct,
        "failed_frac": failed_frac,
        "setup_s_runs": setups,
        "scaled_call_s": call_s,
    }
    return metrics, notes


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(report: dict) -> dict:
    layers = report["layers"]
    metrics = {}
    for name in spans.NAMES:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    metrics["priors.GmmPrior.denoise.jac_bytes"] = (report["jac_bytes"], "B")
    metrics["vi.mh_accept_rate"] = (report["mh_accept_rate"], "fraction")
    traced = [scaled(wall, ref) for wall, ref in zip(report["traced_call_s"], report["traced_ref_s"])]
    untraced = [scaled(wall, ref) for wall, ref in zip(report["call_s"], report["call_ref_s"])]
    overhead = statistics.median(traced) - statistics.median(untraced) if traced and untraced else float("nan")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "mgdm" / "__init__.py").is_file():
        return fail(f"no program to measure: {root / 'src' / 'mgdm'} is missing; run from the root of a checkout")
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=results))
    try:
        # Set-up is measured in fresh processes; the last one goes on to the timed calls.
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPS - 1):
                child = run_child("setup", args, workdir, deadline)
                setups.append((child["setup_s"], child["setup_ref_s"]))
        span_file = results / f"{args.workload}-seed{args.seed}-spans.jsonl" if args.trace else None
        report = run_child("measure", args, workdir, deadline, span_file)
        setups.append((report["setup_s"], report["setup_ref_s"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        return fail(str(err))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, notes = end_to_end(report, setups)
    correct = not report["failures"] and report["accuracy_error"] is None
    printed = per_layer(report) if args.trace else metrics
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "failures": report["failures"],
        "accuracy_error": report["accuracy_error"],
        "end_to_end": as_json(metrics),
        "notes": notes,
        "call_s": report["call_s"],
        "call_ref_s": report["call_ref_s"],
        "provenance": {
            "git_sha": git_sha(root),
            "src_mgdm_lines": src_lines(root),
            "seed": args.seed,
            **report["provenance"],
        },
    }
    if args.trace:
        result["per_layer"] = as_json(printed)
        result["traced_call_s"] = report["traced_call_s"]
        result["traced_ref_s"] = report["traced_ref_s"]
        result["bindings"] = report["bindings"]
        result["expected_counts"] = report["expected_counts"]
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": as_json(printed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
