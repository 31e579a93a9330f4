"""Command-line entry point.

Commands: toy, gen-data, train, loo, ablate, connectivity,
dump-embeddings.  Exit codes are a stable contract: 0 success, 1 user
error (bad arguments, configs, or input files), 2 runtime failure.
Everything a command prints or writes is a deterministic function of
(arguments, config, seed); timing chatter goes to stderr only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .autodiff import DegenerateInputError
from .config import ConfigError, config_snapshot, experiment_config, load_config
from .connectivity import connectivity_report
from .formats import (FormatError, fmt, load_checkpoint, read_dataset,
                      read_embeddings, write_dataset, write_embeddings)
from .harness import (DEFAULT_ROWS, DatasetSpec, TrainingDiverged, ablation_grid,
                      collect_embeddings, leave_one_out, train)
from .synthdata import gen_example31, toy_map_accuracy


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="dccl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("toy",
                       help="closed-form toy maps: domain transfer accuracies")
    p.add_argument("--variant", required=True, choices=("weak", "aggressive"))
    p.add_argument("--n", type=int, default=256, help="samples per class per domain")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("gen-data", help="write a dataset dump")
    p.add_argument("--kind", choices=("rotated_gaussians", "example31"),
                   default="rotated_gaussians")
    p.add_argument("--domains", type=int, default=4)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-domain-class", type=int, default=40)
    p.add_argument("--rotation-step", type=float, default=0.5)
    p.add_argument("--class-separation", type=float, default=3.0)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--n-per-class", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train",
                       help="single leave-one-domain-out run from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--holdout", type=int, default=None,
                   help="override the config's held-out domain")
    p.add_argument("--seed", type=int, default=None,
                   help="override: defaults to the first config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("loo",
                       help="full leave-one-domain-out protocol from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_loo)

    p = sub.add_parser("ablate",
                       help="ablation grid over the component toggles")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("connectivity",
                       help="score an embedding dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--mode", choices=("pooled", "per-domain"), default="pooled")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("dump-embeddings",
                       help="embed a dataset dump with a checkpointed model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_embeddings)
    return parser


def cmd_toy(args):
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    seeds = np.random.SeedSequence(args.seed).generate_state(2)
    d1 = gen_example31(args.n, 1, seed=int(seeds[0]))
    d2 = gen_example31(args.n, 2, seed=int(seeds[1]))
    acc1 = toy_map_accuracy(args.variant, d1)
    acc2 = toy_map_accuracy(args.variant, d2)
    print(f"toy closed-form map: {args.variant}")
    print(f"n per class per domain: {args.n}")
    print(f"d1 accuracy: {100.0 * acc1:.2f}%")
    print(f"d2 accuracy: {100.0 * acc2:.2f}%")
    return 0


def cmd_gen_data(args):
    ds = DatasetSpec(kind=args.kind, n_domains=args.domains, n_classes=args.classes,
                     n_per_domain_class=args.per_domain_class,
                     rotation_step=args.rotation_step, class_separation=args.class_separation,
                     noise_std=args.noise_std, n_per_class=args.n_per_class,
                     seed=args.seed).build()
    write_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples ({ds.n_domains} domains, {ds.n_classes} classes) "
          f"to {args.out}")
    return 0


def _experiment_dir(values):
    return Path(values["output_dir"]) / values["experiment"]


def cmd_train(args):
    values = load_config(args.config)
    seed = args.seed if args.seed is not None else values["seeds"][0]
    cfg = experiment_config(values, seed=seed, holdout=args.holdout)
    run_dir = _experiment_dir(values) / "train" / f"seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(config_snapshot(values))
    result = train(cfg, run_dir=run_dir)
    print("key,value")
    for key, value in result.result_rows():
        print(f"{key},{value}")
    print(f"[train] wall clock {result.wall_clock:.1f}s -> {run_dir}", file=sys.stderr)
    return 0


def cmd_loo(args):
    values = load_config(args.config)
    exp_dir = _experiment_dir(values)
    accs = {}
    for seed in values["seeds"]:
        cfg = experiment_config(values, seed=seed)
        run_dir = exp_dir / "loo" / f"seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.txt").write_text(config_snapshot(values))
        accs[seed] = leave_one_out(cfg, run_dir=run_dir)
    seeds = list(values["seeds"])
    cells = []
    for m in range(len(accs[seeds[0]].runs)):
        row = [accs[s].accuracy_by_holdout()[m] for s in seeds]
        cells.append((str(m), row + [float(np.mean(row))]))
    averages = [accs[s].average for s in seeds]
    cells.append(("avg", averages + [float(np.mean(averages))]))

    header = ["holdout"] + [f"seed{s}" for s in seeds] + ["mean"]
    aligned = ["  ".join(h.ljust(10) for h in header).rstrip()]
    aligned += [
        "  ".join([label.ljust(10)] + [f"{v:.4f}".ljust(10) for v in row]).rstrip()
        for label, row in cells
    ]
    print("\n".join(aligned))
    table = "\n".join([",".join(header)]
                      + [",".join([label] + [fmt(v) for v in row]) for label, row in cells]) + "\n"
    print(table, end="")
    (exp_dir / "loo" / "summary.csv").write_text(table)
    return 0


def cmd_ablate(args):
    values = load_config(args.config)
    cfg = experiment_config(values, seed=values["seeds"][0])
    exp_dir = _experiment_dir(values)
    exp_dir.mkdir(parents=True, exist_ok=True)
    (exp_dir / "config.txt").write_text(config_snapshot(values))
    grid = ablation_grid(cfg, rows=DEFAULT_ROWS, seeds=values["seeds"],
                         workers=args.workers, out_dir=exp_dir)
    print(grid.table_text(), end="")
    print(grid.table_csv(), end="")
    return 0


def cmd_connectivity(args):
    records, _meta = read_embeddings(args.dump)
    report = connectivity_report(records, mode=args.mode)
    opt = lambda v: fmt(v) if v is not None else "undefined"
    lines = [f"mode: {report.mode}"]
    for row in report.rows:
        domain = "all" if row.domain_id is None else str(row.domain_id)
        if row.defined:
            lines.append(
                f"class {row.class_id} domain {domain}: n={row.count} "
                f"tau={fmt(row.tau)} mu={fmt(row.mu)} sigma={fmt(row.sigma)} "
                f"score={fmt(row.score)}"
            )
        else:
            lines.append(f"class {row.class_id} domain {domain}: n={row.count} undefined")
    lines.append(f"mean score: {opt(report.mean_score)}")
    lines.append(f"max score: {opt(report.max_score)}")
    lines.append("")
    lines.append("class,domain,count,tau,mu,sigma,score")
    for row in report.rows:
        domain = "all" if row.domain_id is None else str(row.domain_id)
        lines.append(",".join([
            str(row.class_id), domain, str(row.count),
            opt(row.tau), opt(row.mu), opt(row.sigma), opt(row.score),
        ]))
    lines.append(f"mean,,,,,,{opt(report.mean_score)}")
    lines.append(f"max,,,,,,{opt(report.max_score)}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_dump_embeddings(args):
    obj = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data)
    model = obj.model if hasattr(obj, "model") else obj
    if model.input_dim != dataset.dim:
        raise ConfigError(
            f"checkpoint input width {model.input_dim} does not match "
            f"dataset width {dataset.dim}"
        )
    records = collect_embeddings(obj, dataset)
    write_embeddings(records, args.out, n_classes=dataset.n_classes,
                     n_domains=dataset.n_domains)
    print(f"wrote {len(records)} embeddings to {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDiverged, DegenerateInputError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
