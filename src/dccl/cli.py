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

from . import options
from .autodiff import DegenerateInputError, ShapeError
from .config import ConfigError, config_snapshot, experiment_config, load_config
from .connectivity import connectivity_report
from .formats import (FormatError, load_checkpoint, read_dataset, read_embeddings,
                      write_dataset, write_embeddings, write_text)
from .harness import (DEFAULT_ROWS, AblationRow, DatasetSpec, TrainingDiverged, ablation_grid,
                      check_splits, collect_embeddings, train)
from .options import fmt, fmt_or_undefined
from .synthdata import gen_example31_both, toy_map_accuracy


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _flag(key):
    """The `gen-data` flag of a dataset key."""
    return "--" + key.replace("_", "-")


def build_parser():
    parser = _Parser(prog="dccl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("toy",
                       help="closed-form toy maps: domain transfer accuracies")
    p.add_argument("--variant", required=True, choices=("weak", "aggressive"))
    p.add_argument("--n", type=_int_at_least(1), default=256,
                   help="samples per class per domain")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("gen-data", help="write a dataset dump")
    for key, f in options.option_fields(DatasetSpec):
        p.add_argument(_flag(key), type=options.parser(f),
                       choices=f.metadata["choices"], default=f.default, help=f.metadata["help"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train",
                       help="single leave-one-domain-out run from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--holdout", type=int, default=None,
                   help="override the config's held-out domain")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override: defaults to the first config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("loo",
                       help="full leave-one-domain-out protocol from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_loo)

    p = sub.add_parser("ablate",
                       help="ablation grid over the component toggles")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
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
    ds = gen_example31_both(args.n, seed=args.seed)
    print(f"toy closed-form map: {args.variant}")
    print(f"n per class per domain: {args.n}")
    for m in range(ds.n_domains):
        acc = toy_map_accuracy(args.variant, ds.subset(ds.domain_indices(m)))
        print(f"d{m + 1} accuracy: {100.0 * acc:.2f}%")
    return 0


def cmd_gen_data(args):
    spec = DatasetSpec(**{f.name: getattr(args, key)
                          for key, f in options.option_fields(DatasetSpec)})
    options.check_ranges(spec, name=_flag)
    ds = spec.build()
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
    check_splits(cfg, [seed], [cfg.holdout], cfg.needs_anchor)
    run_dir = _experiment_dir(values) / "train" / f"seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_text(run_dir / "config.txt", config_snapshot(values))
    result = train(cfg, run_dir=run_dir)
    print("key,value")
    for key, value in result.result_rows():
        print(f"{key},{value}")
    print(f"[train] wall clock {result.wall_clock:.1f}s -> {run_dir}", file=sys.stderr)
    return 0


def cmd_loo(args):
    values = load_config(args.config)
    exp_dir = _experiment_dir(values)
    seeds = values["seeds"]
    # every seed's config and every run's split are checked before any write
    cfg, *_ = [experiment_config(values, seed=seed) for seed in seeds]
    check_splits(cfg, seeds, range(cfg.dataset.domain_count), cfg.needs_anchor)
    for seed in seeds:
        run_dir = exp_dir / "loo" / f"seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        write_text(run_dir / "config.txt", config_snapshot(values))
    # a grid of one row, the config's own loss toggles
    grid = ablation_grid(cfg, rows=(AblationRow.of_loss("loo", "loo", cfg.loss),),
                         seeds=seeds, out_dir=exp_dir)
    cells = [(str(m), [grid.accuracy("loo", s, m) for s in seeds]
              + [grid.row_domain_mean("loo", m)]) for m in range(grid.n_domains)]
    cells.append(("avg", [grid.seed_mean("loo", s) for s in seeds] + [grid.row_mean("loo")]))

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
    write_text(exp_dir / "loo" / "summary.csv", table)
    return 0


def cmd_ablate(args):
    values = load_config(args.config)
    cfg, *_ = [experiment_config(values, seed=seed) for seed in values["seeds"]]
    check_splits(cfg, values["seeds"], range(cfg.dataset.domain_count),
                 any(row.apply(cfg).needs_anchor for row in DEFAULT_ROWS))
    exp_dir = _experiment_dir(values)
    exp_dir.mkdir(parents=True, exist_ok=True)
    write_text(exp_dir / "config.txt", config_snapshot(values))
    grid = ablation_grid(cfg, rows=DEFAULT_ROWS, seeds=values["seeds"],
                         workers=args.workers, out_dir=exp_dir)
    write_text(exp_dir / "summary.csv", grid.table_csv())
    write_text(exp_dir / "summary.txt", grid.table_text())
    print(grid.table_text(), end="")
    print(grid.table_csv(), end="")
    return 0


def cmd_connectivity(args):
    records, _meta = read_embeddings(args.dump)
    report = connectivity_report(records, mode=args.mode)
    lines, csv = [f"mode: {report.mode}"], ["class,domain,count,tau,mu,sigma,score"]
    for row in report.rows:
        domain = "all" if row.domain_id is None else str(row.domain_id)
        head = f"class {row.class_id} domain {domain}: n={row.count}"
        lines.append(f"{head} tau={fmt(row.tau)} mu={fmt(row.mu)} sigma={fmt(row.sigma)} "
                     f"score={fmt(row.score)}" if row.defined else f"{head} undefined")
        csv.append(",".join([str(row.class_id), domain, str(row.count),
                             *map(fmt_or_undefined, (row.tau, row.mu, row.sigma, row.score))]))
    mean, top = fmt_or_undefined(report.mean_score), fmt_or_undefined(report.max_score)
    lines += [f"mean score: {mean}", f"max score: {top}",
              "", *csv, f"mean,,,,,,{mean}", f"max,,,,,,{top}"]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        write_text(args.out, text)
    return 0


def cmd_dump_embeddings(args):
    model = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data)
    if not len(dataset):
        raise FormatError(f"{args.data}: dataset has no rows")
    if model.input_dim != dataset.dim:
        raise ConfigError(
            f"checkpoint input width {model.input_dim} does not match "
            f"dataset width {dataset.dim}"
        )
    records = collect_embeddings(model, dataset)
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
    except (TrainingDiverged, DegenerateInputError, ShapeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
