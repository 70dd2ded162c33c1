"""Record BENCH_<pr>.json from alternating parent and change benchmark runs.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --pr N --parent PARENT_CHECKOUT \
        --change CHANGE_CHECKOUT --tier1-seconds SECONDS

PARENT_CHECKOUT and CHANGE_CHECKOUT are two checkouts in which
`perfbench/run.py --trace 0` was run, alternating between them, once per
seed and workload; each run left
`.perfbench_out/<workload>-seed<seed>-trace0/result.json` there.  A pair is
a parent run and a change run of the same workload, seed and length
(`--seconds`); a run without a partner is left out.  For each workload and
length, and each end-to-end metric that BENCHMARK.json declares, the record
holds the parent and change medians over the pairs, the number of pairs,
the number of pairs in which the change was better (in the metric's
direction), the interquartile range of the parent's runs, and every pair's
values.  It also holds the git SHA of each side, the Python and NumPy
versions and CPU count that the runs report, and the Tier-1 wall time given
on the command line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(checkout: Path) -> dict:
    """Untraced result records of a checkout, keyed by (workload, seed,
    seconds)."""
    runs = {}
    for path in sorted((checkout / ".perfbench_out").glob("*-trace0/result.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["seed"], rec["seconds"])] = rec
    return runs


def quartile_range(values: list) -> float:
    """Interquartile range, with linear interpolation between ranks."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def only(values: set, what: str):
    """The one value that every run reports, or an error."""
    if len(values) != 1:
        raise SystemExit(f"runs disagree on {what}: {sorted(map(str, values))}")
    return values.pop()


def record(parent: dict, change: dict, metrics: list, tier1_s: float | None,
           pr: int) -> dict:
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise SystemExit("no parent/change pair of runs")
    pairs = [(parent[k], change[k]) for k in keys]
    env = [rec["environment"] for pair in pairs for rec in pair]
    out = {
        "pr": pr,
        "sha": only({c["environment"]["git_sha"] for _, c in pairs}, "the change SHA"),
        "parent_sha": only({p["environment"]["git_sha"] for p, _ in pairs},
                           "the parent SHA"),
        "python": only({e["python"] for e in env}, "the Python version"),
        "numpy": only({e["numpy"] for e in env}, "the NumPy version"),
        "nproc": only({e["nproc"] for e in env}, "the CPU count"),
        "method": "alternating runs of perfbench/run.py --trace 0, one parent "
                  "and one change run per seed; medians over the pairs",
        "tier1_s": tier1_s,
        "workloads": [],
    }
    for workload, seconds in sorted({(k[0], k[2]) for k in keys}):
        chosen = [(k, p, c) for k, (p, c) in zip(keys, pairs)
                  if (k[0], k[2]) == (workload, seconds)]
        entry = {"workload": workload, "seconds": seconds,
                 "pairs": len(chosen),
                 "seeds": [k[1] for k, _, _ in chosen],
                 "all_correct": all(r["result"]["correct"]
                                    for _, p, c in chosen for r in (p, c)),
                 "metrics": {}}
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            before = [p["result"]["metrics"][name]["value"] for _, p, _ in chosen]
            after = [c["result"]["metrics"][name]["value"] for _, _, c in chosen]
            entry["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent_median": statistics.median(before),
                "change_median": statistics.median(after),
                "pairs": len(chosen),
                "change_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
                "parent_iqr": quartile_range(before),
                "parent": before, "change": after,
            }
        out["workloads"].append(entry)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout that ran the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout that ran the change")
    parser.add_argument("--tier1-seconds", type=float, default=None,
                        help="wall time of the Tier-1 test suite on the change")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rec = record(load_runs(args.parent), load_runs(args.change), metrics,
                 args.tier1_seconds, args.pr)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n")
    for entry in rec["workloads"]:
        for name, m in entry["metrics"].items():
            print(f"{entry['workload']:18s} {entry['seconds']:4g} s {name:16s} "
                  f"{m['parent_median']:.6g} -> "
                  f"{m['change_median']:.6g} {m['unit']}  wins "
                  f"{m['change_wins']}/{m['pairs']}  parent IQR {m['parent_iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
