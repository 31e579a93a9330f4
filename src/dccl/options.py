"""Config-file metadata on dataclass fields, and the text form of their values.

`option` marks a dataclass field as settable from a config file, and
`option_fields` finds the marked fields; `dccl.config` derives its schema
from them.  `parser` and `render` are the one text form of a field value,
shared by config files, the `gen-data` flags and checkpoints, and
`key_values` is the one reader of their `key = value` lines.  This
module lives apart from `dccl.config` because that module imports the
ones that declare fields.
"""

import argparse
import math
from dataclasses import field, fields, is_dataclass


def option(default, help, key=None, choices=None):
    """A config field: its default, its help text, its key within the
    config block when that is not the field name, and its allowed values."""
    return field(default=default, metadata={"help": help, "key": key, "choices": choices})


def option_fields(cls, prefix=""):
    """(config key, field) of each `option` field of a config dataclass,
    nested config blocks included."""
    for f in fields(cls):
        if is_dataclass(f.default):
            yield from option_fields(type(f.default), f"{prefix}{f.name}.")
        elif f.metadata:
            yield prefix + (f.metadata["key"] or f.name), f


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
