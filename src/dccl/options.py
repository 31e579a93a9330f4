"""Config-file metadata on dataclass fields, and the text form of their values.

`option` marks a dataclass field as settable from a config file and
declares its default, its allowed values and its range; `option_fields`
finds the marked fields, from which `dccl.config` derives its schema, and
`check_value` and `check_ranges` check values against them.  `parser` and
`render` are the one text form of a field value, shared by config files,
the `gen-data` flags and checkpoints, and `key_values` is the one reader
of their `key = value` lines.  `ConfigError` and `FormatError`, the two
user errors, are defined here, so that the module that finds a fault
raises it; `dccl.config` and `dccl.formats` re-export them.  This module
lives apart from `dccl.config` because that module imports the ones that
declare fields.
"""

import argparse
import math
from dataclasses import field, fields, is_dataclass
from pathlib import Path


class ConfigError(ValueError):
    """A setting the user chose that the program cannot run: an unknown
    key, a bad value, an unreadable config file.  The CLI exits 1."""


class FormatError(ValueError):
    """A malformed or unreadable dump, dataset or checkpoint file.  The CLI
    exits 1."""


def option(default, help, key=None, choices=None, within=None):
    """A config field: its default, its help text, its key within the
    config block when that is not the field name, its allowed values, and
    the interval its value (each item, for a tuple) must lie in, written
    like "[1, inf)", "(0, inf)" or "(0, 1]"."""
    return field(default=default, metadata={"help": help, "key": key, "choices": choices,
                                            "within": within})


def config_fields(obj, prefix=""):
    """(block, field, value) of each field of a config dataclass or
    instance, a nested config block's fields in place of the block, where
    block is the dotted path of the field's block ("" at the top, else
    ending in "."); a class gives its defaults."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(f.default):
            yield from config_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix, f, value


def _option_values(obj):
    """(config key, field, value) of each `option` field of a config
    dataclass or instance, nested config blocks included."""
    return ((block + (f.metadata["key"] or f.name), f, value)
            for block, f, value in config_fields(obj) if f.metadata)


def option_fields(cls):
    """(config key, field) of each `option` field of a config dataclass,
    nested config blocks included."""
    return ((key, f) for key, f, _ in _option_values(cls))


def _outside(value, within):
    """Why value lies outside the interval `within`, or None if it lies in it."""
    low, high = (end.strip() for end in within[1:-1].split(","))
    above_low = value >= float(low) if within[0] == "[" else value > float(low)
    below_high = value <= float(high) if within[-1] == "]" else value < float(high)
    if above_low and below_high:
        return None
    if high == "inf" and value < math.inf:
        return f"be at least {low}" if within[0] == "[" else f"be greater than {low}"
    return f"lie in {within}"


def check_value(key, f, value, name=str):
    """Raise ConfigError unless `value` of the `option` field f is one of
    its allowed values and lies in its interval (each item, for a tuple).
    The message names the value as `name` spells its config key:
    `<key> must be at least N, got <value>`."""
    choices, within = f.metadata["choices"], f.metadata["within"]
    if choices and value not in choices:
        raise ConfigError(f"{name(key)} must be one of {choices}, got {value!r}")
    for item in value if isinstance(value, tuple) else (value,):
        need = within and _outside(item, within)
        if need:
            raise ConfigError(f"{name(key)} must {need}, got {item}")


def check_ranges(obj, name=str):
    """`check_value` of each `option` value of a config dataclass, nested
    blocks included."""
    for key, f, value in _option_values(obj):
        check_value(key, f, value, name)


class TextError(ValueError, argparse.ArgumentTypeError):
    """Text that is not a value of its field; argparse prints its message."""


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _finite(text):
    value = float(text)
    return value if math.isfinite(value) else None


# by the type of a field's default: what the text of its value must be, and
# how to read stripped text (None or ValueError: it cannot)
_FORMS = {
    bool: ("a boolean", lambda text: _BOOLS.get(text.lower())),
    int: ("an integer", int),
    float: ("a finite number", _finite),
    str: ("text", str),
    tuple: ("comma-separated integers",
            lambda text: tuple(int(part) for part in text.split(",") if part.strip()) or None),
}


def parser(f):
    """The text -> value parser of a dataclass field: one of its allowed
    values if it has them, otherwise by the type of its default.  It
    raises TextError("must be ..., got ...") on text it cannot read."""
    choices = f.metadata.get("choices")
    what, read = ((f"one of {choices}", dict(zip(choices, choices)).get) if choices
                  else _FORMS[type(f.default)])

    def parse(raw):
        text = raw.strip()
        try:
            value = read(text)
        except ValueError:
            value = None
        if value is None:
            raise TextError(f"must be {what}, got {text!r}")
        return value
    return parse


def fmt(x):
    """A float with 17 significant digits, which round-trips IEEE float64
    exactly; the form of every float in a dump, table or checkpoint."""
    return f"{float(x):.17g}"


def fmt_or_undefined(x):
    """`fmt` of a value that may be None, as a connectivity score is when
    no group defines one; None is written `undefined`."""
    return "undefined" if x is None else fmt(x)


def render(value):
    """The text form of a field value, which `parser` reads back."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def read_file(path, what, error):
    """The text of the `what` file at path; a file that cannot be opened or
    decoded raises `error`: `cannot read <what> file <path>: <reason>`."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from None


def key_values(text, source, error):
    """(line number, key, value) of each `key = value` line of text, both
    sides stripped; blank lines and `#` comments are skipped.  Any other
    line raises `error` naming source and line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        yield lineno, key.strip(), value.strip()
