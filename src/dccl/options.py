"""Config-file metadata on dataclass fields.

`option` marks a dataclass field as settable from a config file;
`dccl.config` derives its schema from these marks.  It lives apart from
`dccl.config` because that module imports the ones that declare fields.
"""

from dataclasses import field


def option(default, help, key=None, choices=None):
    """A config field: its default, its help text, its key within the
    config block when that is not the field name, and its allowed values."""
    return field(default=default, metadata={"help": help, "key": key, "choices": choices})
