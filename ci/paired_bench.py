#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark, with a verdict per metric.

Runs `python3 perfbench/run.py` in two source trees, PARENT_DIR and
CHANGE_DIR, for --pairs pairs, alternating which side runs first so a
drift in the host's load falls on both sides alike. Each tree builds into
its own CARGO_TARGET_DIR (<tree>/.bench_build). Every run uses the same
--seed, so a pair differs only in the code.

For each end-to-end metric of BENCHMARK.json it prints every pair, the
parent and change medians, the parent's interquartile range (IQR) and the
change's wins (pairs in which the change is strictly better), then one
verdict:

  regression  the change's median is worse than the parent's by more
              than the metric's bound (a fraction of the parent median);
  unresolved  the parent's IQR is wider than that bound: the runs spread
              too widely to tell a move of the bound's size (unless
              every change run reads better than every parent run);
  gain        the change won at least 9 of every 10 pairs and its median
              is better by more than the parent's IQR;
  same        none of the above.

It also prints each side's share of failed operations. The last stdout
line is the whole report as JSON. The paired run is a measurement, not a
gate: it exits 0 whatever the verdicts, 1 when a run gives no result.

usage:
  ci/paired_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
      --seconds S [--seed N] [--benchmark BENCHMARK.json]
  ci/paired_bench.py --self-check   # the verdict logic on canned numbers
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3), the inclusive method (exact on small samples)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric, parent, change):
    """Summary and verdict for one metric over paired runs.

    `metric` is a BENCHMARK.json end_to_end entry ("better", "bound");
    `parent` and `change` hold one value per pair, in pair order.
    """
    lower = metric["better"] == "lower"
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    every_run_better = (max(change) < min(parent) if lower
                        else min(change) > max(parent))
    # Positive when the change is better.
    gap = (parent_median - change_median if lower
           else change_median - parent_median)
    scale = abs(parent_median)
    bound = metric["bound"] * scale
    if -gap > bound:
        result = "regression"
    elif iqr > bound and not every_run_better:
        result = "unresolved"
    elif wins * 10 >= 9 * len(parent) and gap > iqr:
        result = "gain"
    else:
        result = "same"
    return {
        "name": metric["name"],
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": iqr,
        "wins": wins,
        "pairs": len(parent),
        "verdict": result,
    }


def run_once(tree, workload, seed, seconds):
    """One benchmark run in `tree`; its result dict, or None on failure."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(tree, ".bench_build")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def metric_values(results, name):
    """One value per run of metric `name`, or None when a run lacks it.

    perfbench reports each metric as {"value": v, "unit": u}.
    """
    values = []
    for result in results:
        metric = result["metrics"].get(name)
        if metric is None:
            return None
        values.append(metric["value"])
    return values


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def paired_run(args):
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    trees = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            result = run_once(trees[side], args.workload, args.seed,
                              args.seconds)
            if result is None:
                print(f"pair {pair + 1}: the {side} run gave no result",
                      file=sys.stderr)
                return 1
            results[side].append(result)
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    report = {"workload": args.workload, "pairs": args.pairs,
              "seconds": args.seconds, "seed": args.seed,
              "failed_share": {side: failed_share(results[side])
                               for side in results},
              "metrics": []}
    for metric in metrics:
        parent = metric_values(results["parent"], metric["name"])
        change = metric_values(results["change"], metric["name"])
        if parent is None or change is None:
            continue  # not reported by this workload
        summary = verdict(metric, parent, change)
        summary["parent"] = parent
        summary["change"] = change
        report["metrics"].append(summary)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s, "
          f"seed {args.seed}")
    for summary in report["metrics"]:
        print(f"  {summary['name']}: parent median "
              f"{summary['parent_median']:.6g} (IQR "
              f"{summary['parent_iqr']:.6g}), change median "
              f"{summary['change_median']:.6g}, change wins "
              f"{summary['wins']}/{summary['pairs']}: "
              f"{summary['verdict']}")
        for pair, (p, c) in enumerate(zip(summary["parent"],
                                          summary["change"])):
            print(f"    pair {pair + 1}: parent {p:.6g}  change {c:.6g}")
    print(f"  failed share: parent {report['failed_share']['parent']:.4g}, "
          f"change {report['failed_share']['change']:.4g}")
    print(json.dumps(report, sort_keys=True))
    return 0


def self_check():
    """Runs the verdict logic on canned numbers; 0 when every case holds."""
    lower = {"name": "p50_ms", "better": "lower", "bound": 0.25}
    higher = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
    tight = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    cases = [
        # 10/10 wins, 10% better, parent IQR 0.2: a gain.
        ("lower gain", lower, tight, [v * 0.9 for v in tight], "gain"),
        ("higher gain", higher, tight, [v * 1.1 for v in tight], "gain"),
        # 8/10 wins is not enough, however large the gap.
        ("8 of 10 wins", lower, tight,
         [v * 0.9 for v in tight[:8]] + [v * 1.1 for v in tight[8:]],
         "same"),
        # 10/10 wins by less than the parent IQR.
        ("gap inside the IQR", lower, tight, [v - 0.01 for v in tight],
         "same"),
        # 30% worse against a 25% bound.
        ("lower regression", lower, tight, [v * 1.3 for v in tight],
         "regression"),
        ("higher regression", higher, tight, [v * 0.7 for v in tight],
         "regression"),
        # A parent IQR of 4 on a median of 10 is wider than the 25% bound.
        ("unresolved", lower, [6.0, 14.0, 6.0, 14.0, 10.0, 6.0, 14.0, 10.0,
                               6.0, 14.0], tight, "unresolved"),
        # The same spread, but every change run beats every parent run:
        # resolved, though a gap of 5 inside an IQR of 8 is no gain.
        ("wide but disjoint", lower, [6.0, 14.0, 6.0, 14.0, 10.0, 6.0, 14.0,
                                      10.0, 6.0, 14.0],
         [v * 0.5 for v in tight], "same"),
        ("identical runs", lower, tight, list(tight), "same"),
    ]
    failures = 0
    runs = [{"metrics": {"p50_ms": {"value": 4.5, "unit": "ms"}}},
            {"metrics": {"p50_ms": {"value": 5.5, "unit": "ms"}}}]
    if (metric_values(runs, "p50_ms") != [4.5, 5.5]
            or metric_values(runs, "p95_ms") is not None):
        failures += 1
        print("FAIL: metric values are not read from perfbench's shape")
    for label, metric, parent, change, expected in cases:
        got = verdict(metric, parent, change)["verdict"]
        status = "ok" if got == expected else "FAIL"
        if got != expected:
            failures += 1
        print(f"{status}: {label}: {got} (expected {expected})")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", nargs="?")
    parser.add_argument("change_dir", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-check", action="store_true",
                        help="check the verdict logic on canned numbers")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not (args.parent_dir and args.change_dir and args.workload):
        parser.error("PARENT_DIR, CHANGE_DIR and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return paired_run(args)


if __name__ == "__main__":
    sys.exit(main())
