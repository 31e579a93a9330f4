"""Flat `key = value` experiment configs with block prefixes.

The format is deliberately minimal: one assignment per line, `#` lines
are comments, keys are validated against `SCHEMA` (unknown keys are
rejected, every key has a default and help text).  Apart from the three
command-level keys, `SCHEMA` is derived from the `option` fields of
`ExperimentConfig` and its blocks, so each default is written once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

from .harness import ExperimentConfig


class ConfigError(ValueError):
    """Unknown key, bad value, or unreadable config file."""


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int(raw):
    return int(raw.strip())


def _parse_float(raw):
    return float(raw.strip())


def _parse_str(raw):
    return raw.strip()


def _parse_int_list(raw):
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _choice(*options):
    def parse(raw):
        value = raw.strip()
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value
    return parse


@dataclass(frozen=True)
class Field:
    parse: callable
    default: object
    help: str


# the parser of an `option` field without allowed values, by the type of its default
_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: _parse_str,
            tuple: _parse_int_list}


def _options(cls, prefix=""):
    """(config key, field) of each `option` field of a config dataclass,
    nested config blocks included."""
    for f in fields(cls):
        if is_dataclass(f.default):
            yield from _options(type(f.default), f"{prefix}{f.name}.")
        elif f.metadata:
            yield prefix + (f.metadata["key"] or f.name), f


SCHEMA = {
    "experiment": Field(_parse_str, "experiment", "run name used in output paths"),
    "output_dir": Field(_parse_str, "runs", "root directory for run artifacts"),
    "seeds": Field(_parse_int_list, (0, 1, 2), "comma-separated training seeds"),
    **{key: Field(_choice(*f.metadata["choices"]) if f.metadata["choices"]
                  else _PARSERS[type(f.default)], f.default, f.metadata["help"])
       for key, f in _options(ExperimentConfig)},
}


def parse_config_text(text, source="<config>"):
    values = {key: field.default for key, field in SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = SCHEMA[key].parse(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
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
    lines = []
    for key in sorted(SCHEMA):
        value = values[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
