"""tools/bench_pairs.py: its summary statistics on fixed numbers, its
alternation, its worktree cleanup and its line count, without running the
benchmark."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_compare_counts_pairs_won_and_takes_inclusive_quartiles():
    m = bench_pairs.compare([10.0, 12.0, 11.0, 13.0, 9.0], [14.0, 15.0, 13.0, 16.0, 12.0],
                            "higher")
    assert m["parent"] == {"runs": [10.0, 12.0, 11.0, 13.0, 9.0],
                           "median": 11.0, "q1": 10.0, "q3": 12.0}
    assert (m["change"]["median"], m["change"]["q1"], m["change"]["q3"]) == (14.0, 13.0, 15.0)
    # won 5 of 5 and the median gap of 3 exceeds the parent's IQR of 2, but
    # 5 pairs are too few to claim a gain
    assert (m["won"], m["lost"], m["gain"]) == (5, 0, False)


def test_compare_reads_lower_as_better_and_ties_count_for_neither():
    m = bench_pairs.compare([1.0, 1.0, 2.0, 2.0], [1.0, 0.5, 2.5, 1.5], "lower")
    assert (m["won"], m["lost"], m["gain"]) == (2, 1, False)
    assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == (1.0, 1.5, 2.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    parent = [float(v) for v in range(10, 110, 10)]       # IQR 45
    small = [p + 1.0 for p in parent[:9]] + [parent[9] - 1.0]
    m = bench_pairs.compare(parent, small, "higher")
    assert (m["won"], m["gain"]) == (9, False)           # gap 1 < IQR 45
    large = [p + 100.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    m = bench_pairs.compare(parent, large, "higher")
    assert (m["won"], m["gain"]) == (8, False)           # 8 of 10 pairs
    m = bench_pairs.compare(parent, [p + 100.0 for p in parent], "higher")
    assert (m["won"], m["gain"]) == (10, True)
    m = bench_pairs.compare(parent[:6], [p + 100.0 for p in parent[:6]], "higher")
    assert (m["won"], m["gain"]) == (6, False)           # 6 pairs, fewer than 10


def test_one_run_is_its_own_median_and_quartiles():
    assert bench_pairs.side_summary([3.0]) == {"runs": [3.0], "median": 3.0, "q1": 3.0,
                                               "q3": 3.0}


def test_pairs_alternate_which_side_goes_first(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(tree)
        value = 2.0 if tree == "new" else 1.0
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"items_per_s": {"value": value, "unit": "items/s"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    results, first = bench_pairs.run_pairs({"parent": "old", "change": "new"}, "w", 0, 1.0, 3,
                                           log=lambda line: None)
    assert first == ["parent", "change", "parent"]
    assert calls == ["old", "new", "new", "old", "old", "new"]
    spec = [{"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25}]
    out = bench_pairs.report(results, first, spec, {"workload": "w"})
    assert out["checks"]["change"] == [{"correct": True, "attempted": 4, "failed": 0}] * 3
    assert out["metrics"]["items_per_s"]["change"]["runs"] == [2.0] * 3
    # 3 of 3 won, too few pairs for a gain
    assert (out["metrics"]["items_per_s"]["won"], out["metrics"]["items_per_s"]["gain"]) == (
        3, False)


def committed_repo(path, name, text):
    """A git repository at `path` whose one commit holds the file `name`."""
    path.mkdir()
    (path / name).parent.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text)
    for args in (["init", "-q"], ["add", name], ["commit", "-q", "-m", "parent"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=path,
                       check=True, capture_output=True)
    return path


def test_worktree_is_removed_when_the_run_fails(tmp_path):
    repo = committed_repo(tmp_path / "repo", "file.txt", "parent\n")
    with pytest.raises(RuntimeError, match="benchmark failed"):
        with bench_pairs.worktree("HEAD", repo=repo) as tree:
            assert (tree / "file.txt").read_text() == "parent\n"
            raise RuntimeError("benchmark failed")
    assert not tree.parent.exists()
    listed = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=repo, check=True,
                            capture_output=True, text=True).stdout
    assert listed.count("worktree ") == 1


def test_the_change_runs_from_a_copy_of_the_tree_as_it_stands(tmp_path):
    repo = committed_repo(tmp_path / "repo", "src/dccl/a.py", "x = 1\n")
    (repo / "src" / "dccl" / "a.py").write_text("x = 2\n")          # uncommitted edit
    (repo / "untracked.txt").write_text("new\n")
    for left_out in ("BENCH_x.json", "src/dccl/__pycache__/a.pyc", "perfbench/_work/run.txt",
                     "perfbench/results/r.json", ".hypothesis/db"):
        (repo / left_out).parent.mkdir(parents=True, exist_ok=True)
        (repo / left_out).write_text("left out\n")
    (repo / "perfbench" / "run.py").write_text("kept\n")
    with pytest.raises(RuntimeError, match="benchmark failed"):
        with bench_pairs.trees("HEAD", repo=repo) as sides:
            change = sides["change"]
            assert change.parent == sides["parent"].parent
            assert (sides["parent"] / "src" / "dccl" / "a.py").read_text() == "x = 1\n"
            assert sorted(p.relative_to(change).as_posix() for p in change.rglob("*")
                          if p.is_file()) == ["perfbench/run.py", "src/dccl/a.py",
                                              "untracked.txt"]
            assert (change / "src" / "dccl" / "a.py").read_text() == "x = 2\n"
            raise RuntimeError("benchmark failed")
    assert not change.parent.exists()
    assert (repo / "BENCH_x.json").exists()


def test_src_lines_counts_the_lines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "dccl"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("\n\nlast line without a newline")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    # `wc -l` counts newlines: 3 + 2
    assert bench_pairs.src_lines(tmp_path) == 5


def test_uncommitted_changes_leave_out_the_bench_files(tmp_path):
    repo = committed_repo(tmp_path / "repo", "src/dccl/a.py", "x = 1\n")
    (repo / "BENCH_x.json").write_text("{}\n")
    assert bench_pairs.uncommitted_changes(repo) is False
    (repo / "src" / "dccl" / "a.py").write_text("x = 2\n")
    assert bench_pairs.uncommitted_changes(repo) is True
