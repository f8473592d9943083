"""Steadiness and determinism check for the benchmark.

Runs ``run.py`` on each workload with K different seeds, each run in its
own fresh process and as long as ``BENCHMARK.json``'s ``run_seconds``,
and prints for every end-to-end metric its median, first and third
quartile (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and the metric's bound from ``BENCHMARK.json``. A
spread above a third of the bound is marked ``WIDE``, one above the
bound ``FAIL``.

With ``--determinism`` it also runs each workload twice on one seed and
compares the digests of the simulated outputs (verdicts, raw totals,
bytes, energy, virtual time), which must be identical.

Run from the repository root::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads paper_sweep --runs 5 --first-seed 100
    python3 perfbench/steady.py --runs 0 --determinism --trace
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}"
        )
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest, lines[:-1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--determinism", action="store_true",
                        help="also run each workload twice on one seed")
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload and print "
                             "its overhead against the untraced median round_s")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    status = 0
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, digest, lines = run_once(workload, seed, seconds, 0)
            speed = next(line for line in lines if line.startswith("host speed:"))
            results.append(result)
            values = " ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds
            )
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"digest {digest} {values}\n    {speed}", flush=True)
            if not result["correct"]:
                status = 1
        if results:
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"{workload}: failed share per run {sorted(shares)}")
            print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'bound':>6s}")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                q1, _, q3 = (statistics.quantiles(values, n=4)
                             if len(values) > 1 else (median,) * 3)
                spread = (q3 - q1) / median
                verdict = "ok"
                if spread > bound:
                    verdict, status = "FAIL", 1
                elif spread > bound / 3:
                    verdict = "WIDE"
                print(f"{name:20s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:8.2%} {bound:6.2f} {verdict}")
        if args.determinism:
            seed = args.first_seed
            first = run_once(workload, seed, seconds, 0)[1]
            second = run_once(workload, seed, seconds, 0)[1]
            same = "identical" if first == second else "DIFFERENT"
            status |= first != second
            print(f"{workload}: determinism seed {seed}: {first} / {second} {same}")
        if args.trace:
            traced, digest, lines = run_once(workload, args.first_seed, seconds, 1)
            traced_round = traced["metrics"]["trace.round_s"]["value"]
            untraced = statistics.median(
                [r["metrics"]["round_s"]["value"] for r in results]
            ) if results else run_once(workload, args.first_seed, seconds, 0)[0][
                "metrics"]["round_s"]["value"]
            print(f"{workload}: traced round_s {traced_round:.4f} s against "
                  f"{untraced:.4f} s untraced: tracing overhead "
                  f"{traced_round / untraced - 1:+.1%} (digest {digest})")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
