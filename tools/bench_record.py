"""Record BENCH_<pr>.json from alternating parent and change benchmark runs.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --pr N --parent PARENT_CHECKOUT \
        --change CHANGE_CHECKOUT [--control CONTROL_CHECKOUT] \
        --tier1-seconds SECONDS

PARENT_CHECKOUT and CHANGE_CHECKOUT are two checkouts in which
`perfbench/run.py --trace 0` was run, alternating between them, once per
seed and workload; each run left
`.perfbench_out/<workload>-seed<seed>-trace0/result.json` there.  A pair is
a parent run and a change run of the same workload, seed and length
(`--seconds`); a run without a partner is left out, and so is a run of
length 0, such as the ones `perfbench/selftest.py` (run by Tier-1) leaves
at seed 0.  For each workload and
length, and each end-to-end metric that BENCHMARK.json declares, the record
holds the parent and change medians over the pairs, the number of pairs,
the number of pairs in which the change was better (in the metric's
direction), the interquartile range of the parent's runs, every pair's
values, and three flags, two of them against the metric's bound b:
  * gain: the change wins at least nine tenths of the pairs (a tie counts
    for neither side), and its median is better than the parent median by
    more than the parent's IQR;
  * regressed: the change median is worse than the parent median by more
    than b times the parent median;
  * unresolved: the parent's IQR exceeds b times the parent median, and not
    every change run beats every parent run, so the pairs cannot tell a
    difference of b from noise.  It also holds the git SHA of each side, the Python and NumPy
versions and CPU count that the runs report, and the Tier-1 wall time given
on the command line.

CONTROL_CHECKOUT, when given, is a second checkout of the parent commit,
run in the same alternation as the other two: an A/A control, whose
difference from the parent is host drift and noise alone.  Only the runs
that all three checkouts made are then paired.  Each end-to-end metric also
records the control's median, its shift (control median minus parent
median), its wins over the parent and its values, and gain and regressed
further require the change's shift to exceed the control's in magnitude,
so drift that moves unchanged code as far as the change sets neither flag.

Traced runs (`perfbench/run.py --trace 1`, which leave
`<workload>-seed<seed>-trace1/result.json`) are paired the same way, apart
from the untraced ones, and summarised under "per_layer" with the same
fields for each per-layer metric that BENCHMARK.json declares, apart from
the flags, since those metrics have no bound; that list is empty when no
traced pair exists.  Every run of either kind must report
the same SHA per side and the same environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(checkout: Path, trace: int = 0) -> dict:
    """Result records of a checkout of positive length, untraced or traced,
    keyed by (workload, seed, seconds)."""
    runs = {}
    pattern = f"*-trace{trace}/result.json"
    for path in sorted((checkout / ".perfbench_out").glob(pattern)):
        rec = json.loads(path.read_text())
        if rec["seconds"] > 0:
            runs[(rec["workload"], rec["seed"], rec["seconds"])] = rec
    return runs


def quartile_range(values: list) -> float:
    """Interquartile range, with linear interpolation between ranks."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def change_wins(before: list, after: list, sign: float) -> int:
    """The pairs in which the change is better; a tie is no win."""
    return sum(sign * (a - b) > 0 for b, a in zip(before, after))


def verdict(before: list, after: list, bound: float, sign: float,
            control: list | None = None) -> dict:
    """The gain, regressed and unresolved flags of one metric, relative to
    the parent median; sign is 1 when higher is better and -1 when lower is.
    With the control's values, gain and regressed also need the change's
    shift to exceed the control's shift in magnitude."""
    base = abs(statistics.median(before))
    better = sign * (statistics.median(after) - statistics.median(before))
    drift = 0.0 if control is None else abs(statistics.median(control)
                                            - statistics.median(before))
    iqr = quartile_range(before)
    separated = all(sign * (a - b) > 0 for a in after for b in before)
    return {"gain": 10 * change_wins(before, after, sign) >= 9 * len(before)
                    and better > iqr and better > drift,
            "regressed": -better > bound * base and -better > drift,
            "unresolved": iqr > bound * base and not separated}


def only(values: set, what: str):
    """The one value that every run reports, or an error."""
    if len(values) != 1:
        raise SystemExit(f"runs disagree on {what}: {sorted(map(str, values))}")
    return values.pop()


def summarise(parent: dict, change: dict, metrics: list,
              control: dict | None = None) -> list:
    """One entry per workload and length over the runs that pair up (and
    that the control made, when given): the seeds, whether every run was
    correct, and per metric the parent and change medians, the pair count,
    the change's wins, the parent's IQR, every pair's values, the control's
    median, shift, wins and values, and, for a metric with a bound, its
    verdict."""
    sides = [parent, change] + ([] if control is None else [control])
    keys = sorted(set.intersection(*map(set, sides)))
    entries = []
    for workload, seconds in sorted({(k[0], k[2]) for k in keys}):
        chosen = [k for k in keys if (k[0], k[2]) == (workload, seconds)]
        entry = {"workload": workload, "seconds": seconds,
                 "pairs": len(chosen),
                 "seeds": [k[1] for k in chosen],
                 "all_correct": all(side[k]["result"]["correct"]
                                    for side in sides for k in chosen),
                 "metrics": {}}

        def values(side, name):
            return [side[k]["result"]["metrics"][name]["value"] for k in chosen]

        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            before, after = values(parent, name), values(change, name)
            same = None if control is None else values(control, name)
            entry["metrics"][name] = {
                "unit": m["unit"], "better": m["better"],
                **({"bound": m["bound"]} if "bound" in m else {}),
                "parent_median": statistics.median(before),
                "change_median": statistics.median(after),
                "pairs": len(chosen),
                "change_wins": change_wins(before, after, sign),
                "parent_iqr": quartile_range(before),
                "parent": before, "change": after,
                **({} if same is None else {
                    "control_median": statistics.median(same),
                    "control_shift": (statistics.median(same)
                                      - statistics.median(before)),
                    "control_wins": change_wins(before, same, sign),
                    "control": same}),
                **(verdict(before, after, m["bound"], sign, same)
                   if "bound" in m else {}),
            }
        entries.append(entry)
    return entries


def record(parent: dict, change: dict, metrics: list, tier1_s: float | None,
           pr: int, traced: tuple, control: dict | None = None) -> dict:
    """The record of the untraced pairs, against the control's runs when
    given, and of the traced ones given as (parent runs, change runs,
    per-layer metrics)."""
    traced_parent, traced_change, layer_metrics = traced
    workloads = summarise(parent, change, metrics, control)
    if not workloads:
        raise SystemExit("no parent/change pair of runs")
    per_layer = summarise(traced_parent, traced_change, layer_metrics)
    sides = [(p[k], c[k]) for p, c in ((parent, change),
                                       (traced_parent, traced_change))
             for k in sorted(set(p) & set(c))]
    controls = [] if control is None else [
        control[k] for k in sorted(set(parent) & set(change) & set(control))]
    env = [rec["environment"] for rec in controls] \
        + [rec["environment"] for pair in sides for rec in pair]
    return {
        "pr": pr,
        "sha": only({c["environment"]["git_sha"] for _, c in sides}, "the change SHA"),
        "parent_sha": only({p["environment"]["git_sha"] for p, _ in sides},
                           "the parent SHA"),
        **({} if control is None else {
            "control_sha": only({c["environment"]["git_sha"] for c in controls},
                                "the control SHA")}),
        "python": only({e["python"] for e in env}, "the Python version"),
        "numpy": only({e["numpy"] for e in env}, "the NumPy version"),
        "nproc": only({e["nproc"] for e in env}, "the CPU count"),
        "method": "alternating runs of perfbench/run.py --trace 0, one parent "
                  "and one change run per seed"
                  + ("" if control is None else
                     ", and one run of a second parent checkout (the control)")
                  + "; medians over the pairs; per_layer: the same over "
                    "--trace 1 runs of the parent and the change",
        "tier1_s": tier1_s,
        "workloads": workloads,
        "per_layer": per_layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout that ran the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout that ran the change")
    parser.add_argument("--control", type=Path, default=None,
                        help="second checkout of the parent commit, run in "
                             "the same alternation (an A/A control)")
    parser.add_argument("--tier1-seconds", type=float, default=None,
                        help="wall time of the Tier-1 test suite on the change")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = record(load_runs(args.parent), load_runs(args.change),
                 declared["end_to_end"], args.tier1_seconds, args.pr,
                 (load_runs(args.parent, 1), load_runs(args.change, 1),
                  declared["per_layer"]),
                 None if args.control is None else load_runs(args.control))
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n")
    for entry in rec["workloads"] + rec["per_layer"]:
        for name, m in entry["metrics"].items():
            print(f"{entry['workload']:18s} {entry['seconds']:4g} s {name:30s} "
                  f"{m['parent_median']:.6g} -> "
                  f"{m['change_median']:.6g} {m['unit']}  wins "
                  f"{m['change_wins']}/{m['pairs']}  parent IQR {m['parent_iqr']:.3g}"
                  + (f"  control shift {m['control_shift']:.3g} wins "
                     f"{m['control_wins']}/{m['pairs']}"
                     if "control_shift" in m else "")
                  + (f"  gain {m['gain']}  regressed {m['regressed']}"
                     f"  unresolved {m['unresolved']}"
                     if "regressed" in m else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
