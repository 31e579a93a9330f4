"""Alternating-pair benchmark runs of a parent commit against this tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload loo-full --seed 11 --pairs 10

Checks the parent out with `git worktree add --detach` into a temporary
directory, copies this tree as it stands (uncommitted edits and untracked
files included) beside it, and runs
`python3 perfbench/run.py --workload W --seed S --trace 0` in both fresh
trees, one pair at a time, switching from pair to pair which side goes
first.  Both are removed on every exit path, SIGTERM included.

Writes BENCH_<workload>.json at the root of this tree.  For each
end-to-end metric of BENCHMARK.json it holds each side's runs, median and
quartiles, the pairs the change won and lost (ties count for neither),
and `gain`: whether, over at least `MIN_PAIRS` pairs, the change won at
least nine tenths of them and its median beats the parent's by more than
the parent's interquartile range.  Each run's `correct`, `attempted` and `failed` counts are kept
beside them.  Quartiles are `statistics.quantiles(..., method="inclusive")`.
`meta.parent` and `meta.change` each record the `src_lines` of the tree
that ran, the line count of `src/dccl/*.py`; `meta.change.uncommitted_changes`
says whether this tree differs from its HEAD in anything but BENCH_*.json.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs never claim a gain
# left out of the copy of this tree: names at any depth, paths from its root
SKIP_NAMES = (".git", "__pycache__", ".pytest_cache", ".hypothesis")
SKIP_PATHS = ("perfbench/_work", "perfbench/results", "BENCH_*.json")


def side_summary(runs):
    """Median and quartiles of one side's runs of a metric."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def compare(parent, change, better):
    """One metric's summary over pairs: parent[i] and change[i] ran as
    pair i; `better` is "higher" or "lower", as in BENCHMARK.json."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = side_summary(parent), side_summary(change)
    gap = sign * (c["median"] - p["median"])
    return {"parent": p, "change": c, "won": won, "lost": lost,
            "gain": (len(parent) >= MIN_PAIRS and won >= 0.9 * len(parent)
                     and gap > p["q3"] - p["q1"])}


def src_lines(tree):
    """The line count of `src/dccl/*.py` in `tree`, as `cat src/dccl/*.py | wc -l`
    gives it."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "dccl").glob("*.py"))


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def uncommitted_changes(repo=ROOT):
    """Whether `repo` differs from its HEAD, leaving out the BENCH_*.json
    files this script writes at its root."""
    return bool(git("status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json", cwd=repo))


@contextlib.contextmanager
def worktree(ref, repo=ROOT):
    """A detached checkout of `ref`, removed with its directory on exit."""
    temp_dir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    tree = temp_dir / "tree"
    try:
        git("worktree", "add", "--detach", str(tree), ref, cwd=repo)
        yield tree
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=repo,
                       capture_output=True)
        shutil.rmtree(temp_dir, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=repo, capture_output=True)


@contextlib.contextmanager
def trees(ref, repo=ROOT):
    """{side: tree}: a detached checkout of `ref` as the parent and a copy
    of `repo` as it stands as the change, side by side in one temporary
    directory that is removed on exit."""
    def skipped(directory, names):
        rel = Path(directory).relative_to(repo)
        return [name for name in names if name in SKIP_NAMES
                or any(fnmatch.fnmatch((rel / name).as_posix(), p) for p in SKIP_PATHS)]

    with worktree(ref, repo=repo) as parent:
        change = parent.parent / "change"
        shutil.copytree(repo, change, symlinks=True, ignore=skipped)
        yield {"parent": parent, "change": change}


def run_bench(tree, workload, seed, seconds):
    """One untraced benchmark run in `tree`: its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def run_pairs(trees, workload, seed, seconds, pairs, log=print):
    """`pairs` runs per side, as {side: [result, ...]}, and the side that
    went first in each pair."""
    results, first = {side: [] for side in SIDES}, []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_bench(trees[side], workload, seed, seconds)
            results[side].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            log(f"pair {i + 1}/{pairs} {side}: {values}")
    return results, first


def report(results, first, end_to_end, meta):
    """The BENCH_<workload>.json object of `run_pairs`' results."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         **compare(runs["parent"], runs["change"], spec["better"])}
    checks = {side: [{k: r[k] for k in ("correct", "attempted", "failed")}
                     for r in results[side]] for side in SIDES}
    return {**meta, "first": first, "checks": checks, "metrics": metrics}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, through the trees' cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    meta = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "seconds": seconds,
            "change": {"commit": git("rev-parse", "HEAD"),
                       "uncommitted_changes": uncommitted_changes()}}
    with trees(args.parent) as sides:
        meta["parent"] = {"ref": args.parent,
                          "commit": git("rev-parse", "HEAD", cwd=sides["parent"]),
                          "src_lines": src_lines(sides["parent"])}
        meta["change"]["src_lines"] = src_lines(sides["change"])
        results, first = run_pairs(sides, args.workload, args.seed, seconds, args.pairs)
    out = report(results, first, bench["end_to_end"], meta)
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for name, m in out["metrics"].items():
        print(f"{name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
              f"{m['unit']}, won {m['won']}/{args.pairs}, gain {m['gain']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
