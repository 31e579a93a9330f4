"""Flat `key = value` experiment configs with block prefixes.

The format is deliberately minimal: one assignment per line, `#` lines
are comments, keys are validated against `SCHEMA` (unknown keys are
rejected, every key has a default and help text).  `SCHEMA` is derived
from the three command-level options and the `option` fields of
`ExperimentConfig` and its blocks, so each default is written once, and
each range beside it; `dccl.options` reads and renders each value, and
`ExperimentConfig.validate` checks every range in one walk.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from .harness import ExperimentConfig
from .options import check_value, key_values, option, option_fields, parser, render


class ConfigError(ValueError):
    """Unknown key, bad value, or unreadable config file."""


# the command-level keys: where runs go and which seeds they take
_COMMAND_OPTIONS = {
    "experiment": option("experiment", "run name used in output paths"),
    "output_dir": option("runs", "root directory for run artifacts"),
    "seeds": option((0, 1, 2), "comma-separated training seeds", within="[0, inf)"),
}

# config key -> its `option` field
SCHEMA = {**_COMMAND_OPTIONS, **dict(option_fields(ExperimentConfig))}


def parse_config_text(text, source="<config>"):
    values = {key: f.default for key, f in SCHEMA.items()}
    for lineno, key, raw_value in key_values(text, source, ConfigError):
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parser(SCHEMA[key])(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc} ({source}:{lineno})") from None
    for key, f in _COMMAND_OPTIONS.items():
        check_value(key, f, values[key], error=ConfigError)
    if len(set(values["seeds"])) < len(values["seeds"]):
        raise ConfigError(f"seeds must be distinct, got {render(values['seeds'])}")
    return values


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _build(cls, values, prefix=""):
    """A config dataclass with each `option` field read from values."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default):
            kwargs[f.name] = _build(type(f.default), values, f"{prefix}{f.name}.")
        elif f.metadata:
            kwargs[f.name] = values[prefix + (f.metadata["key"] or f.name)]
    return cls(**kwargs)


def experiment_config(values, seed, holdout=None):
    """Materialize an ExperimentConfig for one (seed, holdout) run."""
    if holdout is not None:
        values = {**values, "holdout": holdout}
    cfg = replace(_build(ExperimentConfig, values), seed=seed)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def config_snapshot(values):
    """Canonical text rendering of an effective config (defaults included)."""
    return "".join(f"{key} = {render(values[key])}\n" for key in sorted(SCHEMA))
