#!/usr/bin/env python3
"""Compare two revisions on the repository benchmark in alternating pairs.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
                                [--pairs N] [--seed S]

(defaults: 10 pairs, seed 1.) Every run lasts BENCHMARK.json's run_seconds.

PARENT and CHANGE are git revisions of this repository. Each one is exported
with `git archive` into a temporary directory (no worktree is added and the
checkout is left untouched), where `perfbench/run.py` builds its own
benchmark. For each workload the script then runs N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds RUN_SECONDS --trace 0

one run per revision, alternating which revision goes first. For every
end-to-end metric that BENCHMARK.json names it prints each side's median and
quartiles, the ratio of the medians (parent / change for a lower-is-better
metric, so above 1 means the change is better), the number of pairs the
change won, and whether the medians differ by more than the parent's
interquartile range.

Exit status: 1 if any run failed (nonzero exit, "correct" false or failed
operations) or a change median is worse than the parent's by more than the
metric's BENCHMARK.json bound; 0 otherwise.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """Writes the tree of `rev` into the directory `into`."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"perf_pairs: git archive {rev} failed")


def run(tree, workload, seed, seconds):
    """One benchmark run; returns (metrics, None) or (None, why it failed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {proc.returncode}, no result: {proc.stderr[-500:]}"
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        return None, (f"exit {proc.returncode}, correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    known = {w["name"] for w in spec["workloads"]}
    for w in args.workload:
        if w not in known:
            ap.error(f"unknown workload {w} (BENCHMARK.json has "
                     f"{', '.join(sorted(known))})")
    revs = {"parent": git("rev-parse", "--short", f"{args.parent}^{{commit}}"),
            "change": git("rev-parse", "--short", f"{args.change}^{{commit}}")}

    scratch = Path(tempfile.mkdtemp(prefix="perf_pairs-"))
    failures = []
    rows = []
    try:
        trees = {}
        for side, rev in revs.items():
            trees[side] = scratch / side
            export(rev, trees[side])
        for workload in args.workload:
            samples = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    metrics, why = run(trees[side], workload, args.seed,
                                       seconds)
                    if why is not None:
                        failures.append(f"{workload} {side} ({revs[side]}) "
                                        f"pair {i + 1}: {why}")
                        print(f"FAILED {failures[-1]}", file=sys.stderr)
                        continue
                    samples[side].append(metrics)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"wall_s {metrics['wall_s']:.4g}", file=sys.stderr)
            if len(samples["parent"]) != args.pairs or \
                    len(samples["change"]) != args.pairs:
                continue
            for m in spec["end_to_end"]:
                name, lower = m["name"], m["better"] == "lower"
                par = [s[name] for s in samples["parent"]]
                chg = [s[name] for s in samples["change"]]
                pq, cq = quartiles(par), quartiles(chg)
                ratio = pq[1] / cq[1] if lower else cq[1] / pq[1]
                wins = sum((c < p) if lower else (c > p)
                           for p, c in zip(par, chg))
                clear = abs(cq[1] - pq[1]) > pq[2] - pq[0]
                worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
                regressed = worse > m["bound"] * pq[1]
                rows.append((workload, f"`{name}` ({m['unit']})", pq, cq,
                             ratio, wins, clear, regressed))
                if regressed:
                    failures.append(
                        f"{workload} {name}: change median {cq[1]:.4g} is worse "
                        f"than parent {pq[1]:.4g} by more than {m['bound']:.0%}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"parent {revs['parent']} vs change {revs['change']}: {args.pairs} "
          f"pairs, seed {args.seed}, {seconds:g} s per run; "
          "median [q1, q3]")
    print()
    print("| workload | metric | parent | change | gain | change wins "
          "| beyond parent IQR | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, name, pq, cq, ratio, wins, clear, regressed in rows:
        print(f"| {workload} | {name} | {fmt(pq)} | {fmt(cq)} | {ratio:.3g}x "
              f"| {wins}/{args.pairs} | {'yes' if clear else 'no'} "
              f"| {'EXCEEDED' if regressed else 'ok'} |")
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
