"""Compare two sets of benchmark result files, workload by workload.

    python3 bench/compare.py OLD_DIR NEW_DIR

Each directory holds result files written by ``bench/run.py`` (for
example ``bench/baseline`` and ``bench/results``).  For every end-to-end
metric of every workload this prints each side's median and quartiles,
the change of the median as a share of the old one, the bound from
``BENCHMARK.json``, how many seeds run on both sides the new side wins,
and a verdict:

  worse        the new median is worse than the old by more than the bound
  better       the new side wins at least 9 in 10 seed pairs and the medians
               differ by more than the old side's own quartile spread
  unresolved   the old side's quartile spread is wider than the bound
  same         otherwise

Traced results (``--trace 1``) are listed as per-module medians, old and new.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: result}}."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        out.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: dict, new: dict, name: str, better: str, bound: float) -> str:
    ov = [r["end_to_end"][name]["value"] for r in old.values()]
    nv = [r["end_to_end"][name]["value"] for r in new.values()]
    (o1, om, o3), (n1, nm, n3) = quartiles(ov), quartiles(nv)
    sign = 1.0 if better == "lower" else -1.0
    change = (nm - om) / om if om else float("nan")
    pairs = [(old[s]["end_to_end"][name]["value"], new[s]["end_to_end"][name]["value"]) for s in old if s in new]
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if sign * change > bound:
        word = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and abs(nm - om) > (o3 - o1):
        word = "better"
    elif om and (o3 - o1) / abs(om) > bound:
        word = "unresolved"
    else:
        word = "same"
    return (
        f"  {name:14s} old {om:.4g} [{o1:.4g}, {o3:.4g}]  new {nm:.4g} [{n1:.4g}, {n3:.4g}]  "
        f"change {change:+.1%} (bound {bound:.0%})  wins {wins}/{len(pairs)}  {word}"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    old, new = load(Path(argv[0])), load(Path(argv[1]))
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'end to end'}; {len(old[key])} old, {len(new[key])} new runs)")
        if not trace:
            for metric in spec["end_to_end"]:
                print(verdict(old[key], new[key], metric["name"], metric["better"], metric["bound"]))
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            ov = statistics.median(r["per_layer"][name]["value"] for r in old[key].values())
            nv = statistics.median(r["per_layer"][name]["value"] for r in new[key].values())
            if ov or nv:
                print(f"  {name:48s} old {ov:.4g}  new {nv:.4g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
