#!/usr/bin/env python3
"""Paired A/B runs of the linkpad benchmark: a base tree against a head tree.

    python3 scripts/ab_bench.py --base DIR --head DIR [--workload W ...]
                                [--pairs 10] [--seconds S] [--seed N]
    python3 scripts/ab_bench.py --self-test

Each tree is a linkpad checkout: for example a `git clone` of the parent
commit, and the change. For every workload the script runs
`python3 perfbench/run.py --workload W --seed N --seconds S` in each tree
`--pairs` times, alternating which side goes first (pair 0 runs the base
first, pair 1 the head, ...), after one discarded warm-up run per tree
that also builds it. It refuses any run whose result reads `correct`
false or `failed` > 0.

Metric names, directions and bounds come from the head tree's
BENCHMARK.json (`end_to_end`), and so does the default run length S
(`run_seconds`). For each workload and metric it prints:

  * each side's median and quartiles over its runs;
  * the head's win count (a pair is a win when the head's value is better
    in the metric's direction; a tie is not a win);
  * the paired median ratio, median over pairs of head / base;
  * a verdict, checked in this order:
      gain              the head wins at least 90% of the pairs (9 of 10),
                        and the medians differ, in its favour, by more than
                        the base's interquartile range;
      unresolved        the base's own spread (IQR / median) is wider than
                        the bound, so the runs cannot place the head
                        against it;
      worse than bound  the paired median ratio is worse than the bound
                        (below 1 - bound for higher-is-better metrics,
                        above 1 + bound for lower-is-better ones);
      within bound      otherwise.

The last line of stdout is a JSON summary: the verdict rows, and under
`runs` every run's metrics, per workload and side in pair order. The exit
status is 1 when a metric reads "worse than bound", 2 on a refused or
failed run or a bad invocation, and 0 otherwise. The script writes nothing under perfbench/:
perfbench keeps its build (`.bench_build/`) and records (`.bench_out/`) at
each tree's root; when CARGO_TARGET_DIR is set, the two sides build under
its `ab_base` and `ab_head` subdirectories instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # a gain needs at least this share of the pairs


def fail(message: str, code: int = 2) -> None:
    print(f"ab_bench: {message}", file=sys.stderr)
    sys.exit(code)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def summary(values: list[float]) -> dict:
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75)}


def load_benchmark(tree: Path) -> dict:
    """BENCHMARK.json's end-to-end metrics, workload names and run length."""
    try:
        spec = json.loads((tree / "BENCHMARK.json").read_text())
        return {"metrics": [{"name": m["name"], "better": m["better"],
                             "bound": float(m["bound"])}
                            for m in spec["end_to_end"]],
                "workloads": [w["name"] for w in spec["workloads"]],
                "seconds": float(spec["run_seconds"])}
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"cannot read {tree}/BENCHMARK.json: {error}")
    return {}


def check_result(result: dict, label: str) -> dict:
    """The run's metrics, or a refusal naming the run."""
    if result.get("correct") is not True:
        raise ValueError(f"{label}: result reads correct "
                         f"{result.get('correct')!r}")
    if result.get("failed") != 0:
        raise ValueError(f"{label}: result reads failed "
                         f"{result.get('failed')!r}")
    return {name: entry["value"]
            for name, entry in result.get("metrics", {}).items()}


def verdict(metric: dict, base: list[float], head: list[float]) -> dict:
    """Compare paired runs (base[i], head[i]) of one metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
    ratio = quantile([h / b for b, h in zip(base, head)], 0.5)
    b, h = summary(base), summary(head)
    iqr = b["q3"] - b["q1"]
    gap = (h["median"] - b["median"]) if higher else (b["median"] - h["median"])
    spread = iqr / b["median"] if b["median"] else math.inf
    worse = ratio < 1.0 - bound if higher else ratio > 1.0 + bound
    if wins >= math.ceil(WIN_SHARE * len(base)) and gap > iqr:
        call = "gain"
    elif spread > bound:
        call = "unresolved"
    elif worse:
        call = "worse than bound"
    else:
        call = "within bound"
    return {"metric": metric["name"], "better": metric["better"],
            "bound": bound, "pairs": len(base), "wins": wins,
            "paired_median_ratio": ratio, "base": b, "head": h,
            "base_spread": spread, "verdict": call}


def run_side(tree: Path, side: str, workload: str, seed: int,
             seconds: float) -> dict:
    env = dict(os.environ)
    if env.get("CARGO_TARGET_DIR"):
        env["CARGO_TARGET_DIR"] = str(Path(env["CARGO_TARGET_DIR"]) /
                                      f"ab_{side}")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail(f"{side} run of {workload} in {tree} exited with "
             f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{side} run of {workload} in {tree} printed no JSON result")
    return {}


def measure(trees: dict, workload: str, args) -> dict:
    """{side: [metrics per pair]} for one workload."""
    for side in ("base", "head"):  # warm-up: builds the tree, discarded
        run_side(trees[side], side, workload, args.seed, 1.0)
    runs = {"base": [], "head": []}
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            result = run_side(trees[side], side, workload, args.seed,
                              args.seconds)
            try:
                runs[side].append(check_result(
                    result, f"{side} {workload} pair {pair}"))
            except ValueError as error:
                fail(f"refused run: {error}")
        print(f"ab_bench: {workload} pair {pair + 1}/{args.pairs} done",
              file=sys.stderr)
    return runs


def report(workload: str, metrics: list[dict], runs: dict) -> list[dict]:
    rows = []
    print(f"{workload}: {len(runs['base'])} pairs")
    for metric in metrics:
        name = metric["name"]
        row = verdict(metric, [r[name] for r in runs["base"]],
                      [r[name] for r in runs["head"]])
        row["workload"] = workload
        rows.append(row)
        b, h = row["base"], row["head"]
        print(f"  {name:15s} base {b['median']:.6g} [{b['q1']:.6g}, "
              f"{b['q3']:.6g}]  head {h['median']:.6g} [{h['q1']:.6g}, "
              f"{h['q3']:.6g}]  wins {row['wins']}/{row['pairs']}  "
              f"ratio {row['paired_median_ratio']:.4f}  "
              f"-> {row['verdict']}")
    return rows


def self_test() -> int:
    """Verdicts on canned numbers; builds and runs nothing."""
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    up = {"name": "units_per_s", "better": "higher", "bound": 0.25}
    down = {"name": "cpu_s_per_unit", "better": "lower", "bound": 0.25}
    rss = {"name": "peak_rss_mb", "better": "lower", "bound": 0.10}
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5]

    gain = verdict(up, base, [b * 1.4 for b in base])
    expect(gain["verdict"] == "gain" and gain["wins"] == 10,
           "a clear throughput rise is a gain")
    expect(abs(gain["paired_median_ratio"] - 1.4) < 1e-12,
           "paired median ratio of a uniform 1.4x is 1.4")

    eight = verdict(up, base, [b * (1.4 if i < 8 else 0.9)
                               for i, b in enumerate(base)])
    expect(eight["wins"] == 8 and eight["verdict"] == "within bound",
           "8 of 10 wins is not a gain")

    nine = verdict(up, base, [b * (1.4 if i < 9 else 0.9)
                              for i, b in enumerate(base)])
    expect(nine["verdict"] == "gain", "9 of 10 wins with a wide gap is a gain")

    narrow = verdict(up, base, [b + 0.1 for b in base])
    expect(narrow["wins"] == 10 and narrow["verdict"] == "within bound",
           "10 wins inside the base's IQR are not a gain")

    tie = verdict(up, base, list(base))
    expect(tie["wins"] == 0 and tie["verdict"] == "within bound",
           "ties are not wins")

    slower = verdict(up, base, [b * 0.7 for b in base])
    expect(slower["verdict"] == "worse than bound",
           "a 30% throughput drop is worse than a 25% bound")

    costly = verdict(down, [1.0] * 10, [1.3] * 10)
    expect(costly["verdict"] == "worse than bound",
           "+30% CPU per unit is worse than a 25% bound")
    cheaper = verdict(down, [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0,
                             1.01, 0.99], [0.9] * 10)
    expect(cheaper["verdict"] == "gain", "lower-is-better gains count")

    fat = verdict(rss, [17.0] * 10, [17.0 * 1.04] * 10)
    expect(fat["verdict"] == "within bound", "+4% RSS is within a 10% bound")
    fatter = verdict(rss, [17.0] * 10, [17.0 * 1.15] * 10)
    expect(fatter["verdict"] == "worse than bound",
           "+15% RSS is worse than a 10% bound")

    wide = [3.0, 4.8, 2.9, 4.6, 3.1, 4.5, 2.8, 4.7, 3.0, 4.9]
    noisy = verdict({"name": "setup_s", "better": "lower", "bound": 0.25},
                    wide, [w * 1.3 for w in wide])
    expect(noisy["verdict"] == "unresolved",
           "a base spread wider than the bound is unresolved")

    three = verdict(up, [100.0, 101.0, 99.0], [140.0, 141.0, 139.0])
    expect(three["verdict"] == "gain", "3 of 3 pairs can show a gain")

    expect(quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5, "median interpolates")
    expect(quantile([5.0, 1.0, 3.0], 0.25) == 2.0, "quartiles sort first")

    metrics = {"units_per_s": {"value": 1.0, "unit": "1/s"}}
    expect(check_result({"correct": True, "failed": 0, "metrics": metrics},
                        "ok") == {"units_per_s": 1.0},
           "a correct run yields its metrics")
    for bad in ({"correct": False, "failed": 0, "metrics": metrics},
                {"correct": True, "failed": 1, "metrics": metrics},
                {"failed": 0, "metrics": metrics}):
        try:
            check_result(bad, "bad")
            failures.append(f"run not refused: {bad}")
        except ValueError:
            pass

    repo = Path(__file__).resolve().parent.parent
    bench = load_benchmark(repo)
    expect([m["name"] for m in bench["metrics"]] ==
           ["units_per_s", "cpu_s_per_unit", "setup_s", "peak_rss_mb"],
           "BENCHMARK.json's end-to-end metrics load in order")
    expect(bench["seconds"] > 0 and "fig4b_curve" in bench["workloads"],
           "BENCHMARK.json's run length and workloads load")

    for failure in failures:
        print(f"ab_bench self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("ab_bench self-test: all checks passed", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="the parent tree")
    parser.add_argument("--head", type=Path, help="the changed tree")
    parser.add_argument("--workload", action="extend", nargs="+",
                        help="one or more, repeatable; default: every "
                             "BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="per run; default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed", type=int, default=20030324)
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdicts on canned numbers")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.head is None:
        parser.error("--base and --head are required")
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            fail(f"{tree} is not a linkpad tree (no perfbench/run.py)")
    bench = load_benchmark(trees["head"])
    if args.seconds is None:
        args.seconds = bench["seconds"]
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    rows, raw = [], {}
    for workload in args.workload or bench["workloads"]:
        raw[workload] = measure(trees, workload, args)
        rows += report(workload, bench["metrics"], raw[workload])
    print(json.dumps({"seed": args.seed, "seconds": args.seconds,
                      "pairs": args.pairs, "rows": rows, "runs": raw}))
    return 1 if any(r["verdict"] == "worse than bound" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
