"""One workload process: set up, then time calls in a closed loop with one caller.

Started by ``run.py``; prints one JSON report as its last stdout line.
With ``--role setup`` it stops after the warm-up call.  The reference
kernel (``reference.py``) runs at start, after the warm-up and after
every call, to rate the host's speed around each timed interval.  With ``--trace 1``
every second call runs with the span tracer installed and the others run
untraced, so the tracing overhead is measured in the same process.
"""

import time

from reference import reference

REF_BEFORE = reference()  # host speed at start, before the set-up it scales
STARTED = time.perf_counter()  # before any import the set-up time must include

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "env_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "env_OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["setup", "measure"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where to write the spans of a traced run")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import mgdm

    if Path(mgdm.__file__).resolve().parent != (src / "mgdm").resolve():
        raise RuntimeError(f"imported mgdm from {mgdm.__file__}, not from {src}")
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.check(0, workload.call(0))  # warm-up
    setup_s = time.perf_counter() - STARTED
    ref_s = reference()
    setup_ref_s = (REF_BEFORE * ref_s) ** 0.5
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    call_s, traced_call_s, failures, traced_ids = [], [], [], []
    call_ref_s, traced_ref_s = [], []  # reference-kernel time around each timed call
    clock = time.perf_counter
    deadline = clock() + args.seconds
    need = max(workload.min_calls, 2 if tracer else 1)
    k = 1
    while clock() < deadline or k <= need:
        traced = tracer is not None and k % 2 == 0
        if traced:
            traced_ids.append(k)
            tracer.call_id = k
            tracer.install()
        started = clock()
        try:
            out = workload.call(k)
        except Exception as err:  # a failed call is counted, never retried
            out, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        elapsed = clock() - started
        if traced:
            tracer.uninstall()
        ref_before, ref_s = ref_s, reference()
        if error is None:
            try:
                workload.check(k, out)
            except Exception as err:
                error = f"{type(err).__name__}: {err}"
        if error is None:
            (traced_call_s if traced else call_s).append(elapsed)
            (traced_ref_s if traced else call_ref_s).append((ref_before * ref_s) ** 0.5)
        else:
            failures.append({"call": k, "traced": traced, "error": error})
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "attempted": k - 1,
        "failures": failures,
        "call_s": call_s,
        "call_ref_s": call_ref_s,
        "traced_call_s": traced_call_s,
        "traced_ref_s": traced_ref_s,
        "samples_per_call": workload.samples_per_call,
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(),
    }
    try:
        report["sliced_w2"] = workload.accuracy()
        report["accuracy_error"] = None
    except Exception as err:
        report["sliced_w2"] = float("nan")
        report["accuracy_error"] = f"{type(err).__name__}: {err}"
    if tracer is not None:
        report.update(traced_report(tracer, workload, traced_ids))
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


def traced_report(tracer, workload, traced_ids: list[int]) -> dict:
    """Per-call layer numbers, after checking call counts against the config."""
    expected = workload.expected_counts()
    by_call = tracer.counts_by_call()
    for call in traced_ids:
        counts = by_call.get(call, {})
        for name, want in expected.items():
            if counts.get(name, 0) != want:
                raise RuntimeError(f"call {call}: {name} ran {counts.get(name, 0)} times, config implies {want}")
    return {
        "layers": tracer.per_call(len(traced_ids)),
        "jac_bytes": tracer.jac_bytes / len(traced_ids),
        "mh_accept_rate": tracer.mh_moved / tracer.mh_chains if tracer.mh_chains else 0.0,
        "bindings": tracer.bindings(),
        "expected_counts": expected,
    }


if __name__ == "__main__":
    sys.exit(main())
