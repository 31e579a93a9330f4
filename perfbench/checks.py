"""Output checks computed apart from the program.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks read the files the program wrote with their
own parsers and recompute the numbers with plain numpy (and scipy for
connectivity); they never compare against stored copies of an output.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BN_EPS = 1e-5   # batch-norm epsilon of the dccl projection head


def fmt17(x):
    return f"{float(x):.17g}"


def file_digests(root):
    """relative path -> sha256 of every file under root."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def check_same_bytes(first, later, label):
    """A repetition must reproduce the first repetition's files byte for byte."""
    if first == later:
        return []
    missing = sorted(set(first) ^ set(later))
    changed = sorted(k for k in set(first) & set(later) if first[k] != later[k])
    return [f"{label}: differs from the first repetition "
            f"(changed {changed[:3]}, missing {missing[:3]})"]


def read_key_values(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "key,value":
        raise ValueError(f"{path}: not a key,value table")
    return dict(line.split(",", 1) for line in lines[1:] if line)


# --- checkpoints and the plain-numpy forward pass --------------------------------

def read_checkpoint(path):
    """(fields, arrays) of a checkpoint file, parsed without dccl."""
    fields, arrays = {}, {}
    for line in Path(path).read_text().splitlines()[1:]:
        key, _, value = line.partition(" = ")
        fields[key] = value
    for key, value in fields.items():
        if key.startswith("array.") and key.endswith(".shape"):
            name = key[len("array."):-len(".shape")]
            shape = tuple(int(s) for s in value.split(",")) if value else ()
            data = np.array([float(v) for v in fields[f"array.{name}.data"].split(",")])
            arrays[name.split(".", 1)[1]] = data.reshape(shape)
    return fields, arrays


def forward_logits(fields, arrays, X):
    """Evaluation-mode logits: ReLU MLP encoder, projection head with
    running-statistics batch norm, L2-normalised embedding, linear
    classifier."""
    h = np.asarray(X, dtype=np.float64)
    n_layers = len(fields["arch.encoder_hidden"].split(","))
    for i in range(n_layers):
        h = h @ arrays[f"enc.{i}.W"] + arrays[f"enc.{i}.b"]
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    if int(fields["arch.head_hidden"]) > 0:
        h = h @ arrays["head.l1.W"] + arrays["head.l1.b"]
        if fields["arch.batchnorm"] == "true":
            inv = 1.0 / np.sqrt(arrays["head.bn.running_var"] + BN_EPS)
            h = (h - arrays["head.bn.running_mean"]) * inv * arrays["head.bn.gamma"] \
                + arrays["head.bn.beta"]
        h = np.maximum(h, 0.0)
        h = h @ arrays["head.l2.W"] + arrays["head.l2.b"]
    z = h / np.sqrt(np.sum(h * h, axis=1))[:, None]
    return z @ arrays["cls.W"] + arrays["cls.b"]


def check_test_accuracy(run_dir, X, labels, domains, holdout):
    """The reported test accuracy equals a forward pass over the selected
    checkpoint, on the held-out domain only."""
    result = read_key_values(Path(run_dir) / "result.csv")
    fields, arrays = read_checkpoint(Path(run_dir) / "checkpoint.txt")
    test = domains == holdout
    pred = np.argmax(forward_logits(fields, arrays, X[test]), axis=1)
    acc = fmt17(np.mean(pred == labels[test]))
    if acc != result["test_accuracy"]:
        return [f"{run_dir}: test_accuracy {result['test_accuracy']} but the "
                f"checkpoint scores {acc}"]
    return []


# --- loss tables and batch audits ---------------------------------------------------

def check_losses(path, steps):
    """Every row's weighted terms sum exactly to its total, one row per step."""
    lines = Path(path).read_text().splitlines()
    if lines[0] != "step,erm,contrast,gen,total":
        return [f"{path}: bad header {lines[0]!r}"]
    failures = []
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(1, steps + 1)):
        failures.append(f"{path}: expected steps 1..{steps}")
    for r in rows:
        erm, contrast, gen, total = (float(v) for v in r[1:])
        if erm + contrast + gen != total:
            failures.append(f"{path}: step {r[0]}: {erm} + {contrast} + {gen} != {total}")
            break
    return failures


def check_batch_counts(counts, holdout, steps, batch_size, label):
    failures = []
    if holdout in counts:
        failures.append(f"{label}: held-out domain {holdout} appears in training batches")
    if sum(counts.values()) != steps * batch_size:
        failures.append(f"{label}: batch counts sum to {sum(counts.values())}, "
                        f"expected {steps} x {batch_size}")
    return failures


# --- ablation grid summaries ----------------------------------------------------------

def check_summary(grid_dir, rows, seeds, n_domains):
    """Recompute every summary.csv cell from the per-run result.csv files.

    rows: (name, (cdc, pma, gt, aggressive)) in table order."""
    grid_dir = Path(grid_dir)
    lines = (grid_dir / "summary.csv").read_text().splitlines()
    cols = ",".join(f"holdout{m}" for m in range(n_domains))
    expected = [f"row,cdc,pma,gt,aggressive,{cols},avg"]
    for name, flags in rows:
        acc = np.array([[float(read_key_values(
            grid_dir / name / f"seed{s}" / f"holdout{m}" / "result.csv")["test_accuracy"])
            for m in range(n_domains)] for s in seeds])
        cells = [name] + ["1" if f else "0" for f in flags]
        cells += [fmt17(np.mean(acc[:, m])) for m in range(n_domains)]
        cells.append(fmt17(np.mean([np.mean(acc[i]) for i in range(len(seeds))])))
        expected.append(",".join(cells))
    failures = []
    if len(lines) != len(expected):
        failures.append(f"{grid_dir}/summary.csv: {len(lines)} lines, expected {len(expected)}")
    for got, want in zip(lines, expected):
        if got != want:
            failures.append(f"{grid_dir}/summary.csv: {got!r} != recomputed {want!r}")
    return failures


def check_checkpoint_roundtrip(path, scratch):
    """load -> save reproduces the checkpoint byte for byte."""
    from dccl.formats import load_checkpoint, save_checkpoint

    save_checkpoint(load_checkpoint(path), scratch)
    if Path(scratch).read_bytes() != Path(path).read_bytes():
        return [f"{path}: does not round-trip byte for byte"]
    return []


# --- connectivity reports -----------------------------------------------------------------

def read_report(path):
    """(class, domain) -> (count, tau, mu, sigma, score) from the CSV part
    of a `dccl connectivity` report, plus the mean and max lines."""
    lines = Path(path).read_text().splitlines()
    start = lines.index("class,domain,count,tau,mu,sigma,score") + 1
    rows, aggregates = {}, {}
    for line in lines[start:]:
        cells = line.split(",")
        if cells[0] in ("mean", "max"):
            aggregates[cells[0]] = float(cells[-1])
            continue
        domain = None if cells[1] == "all" else int(cells[1])
        rows[(int(cells[0]), domain)] = (int(cells[2]), *(float(v) for v in cells[3:]))
    return rows, aggregates


def check_report(path, vectors, classes, domains, mode, rtol=1e-9):
    """tau against the largest edge of scipy's minimum spanning tree, mu and
    sigma against scipy's pdist, score and aggregates against their formula."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial.distance import pdist, squareform

    rows, aggregates = read_report(path)
    keys = set(zip(classes.tolist(), domains.tolist()))
    groups = {(c, None) for c, _ in keys} if mode == "pooled" else keys
    if set(rows) != groups:
        return [f"{path}: scored groups {sorted(rows, key=str)} != {sorted(groups, key=str)}"]
    failures = []
    scores = []
    for (c, m), (count, tau, mu, sigma, score) in rows.items():
        mask = classes == c if m is None else (classes == c) & (domains == m)
        pts = vectors[mask]
        d = pdist(pts)
        want = {
            "count": len(pts),
            "tau": float(minimum_spanning_tree(csr_matrix(np.triu(squareform(d)))).data.max()),
            "mu": float(d.mean()),
            "sigma": float(d.std()),
        }
        got = {"count": count, "tau": tau, "mu": mu, "sigma": sigma}
        for name in want:
            if not np.isclose(got[name], want[name], rtol=rtol, atol=0.0):
                failures.append(f"{path}: class {c} domain {m}: {name} {got[name]!r} "
                                f"!= independent {want[name]!r}")
        if not np.isclose(score, (tau - mu) / sigma, rtol=rtol, atol=0.0):
            failures.append(f"{path}: class {c} domain {m}: score {score!r} "
                            f"!= (tau - mu) / sigma")
        scores.append(score)
    if not np.isclose(aggregates["mean"], np.mean(scores), rtol=rtol, atol=0.0):
        failures.append(f"{path}: mean score {aggregates['mean']!r} != {np.mean(scores)!r}")
    if aggregates["max"] != max(scores):
        failures.append(f"{path}: max score {aggregates['max']!r} != {max(scores)!r}")
    return failures
