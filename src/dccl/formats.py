"""Line-oriented file formats: dataset dumps, embedding dumps, checkpoints.

Every float is printed with 17 significant digits, which round-trips
IEEE float64 exactly, so dump -> load -> dump is byte-identical.  Every
artifact the package writes goes through `write_text`.  A file that is
malformed or cannot be read raises `FormatError`, which `dccl.options`
defines and this module re-exports.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .autodiff import ShapeError
from .connectivity import EmbeddingRecord
from .nets import Model, ModelSpec
from .options import FormatError, fmt, key_values, parser, read_file, render
from .synthdata import Dataset

DATA_MAGIC = "# dccl-data v1"
DUMP_MAGIC = "# dccl-dump v1"
CKPT_MAGIC = "# dccl-checkpoint v1"
KINDS = ("model", "anchor")
# coordinates a table read holds as Python floats before copying them out
PARSE_CHUNK = 4096


def write_text(path, text):
    """Write `text` to `path` through a temp file in the same directory and
    a rename, so a failed write leaves the old file (or none), never a
    truncated one."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _params_str(params):
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def _key_values(parts):
    return dict(part.split("=", 1) for part in parts if "=" in part)


def _write_table(path, header, ids, X):
    """The rows `_read_table` reads: integer ids, then the coordinates of
    the float64 array X, formatted from its one `.tolist()`."""
    rows = (",".join([*map(str, i), *map(fmt, x)]) for i, x in zip(ids, X.tolist()))
    write_text(path, "\n".join([header, *rows]) + "\n")


# --- dataset dumps ----------------------------------------------------------

def write_dataset(dataset, path):
    _write_table(path, f"{DATA_MAGIC} generator={dataset.generator} domains={dataset.n_domains} "
                       f"classes={dataset.n_classes} dim={dataset.dim} seed={dataset.seed} "
                       f"params={_params_str(dataset.params)}",
                 zip(dataset.domains.tolist(), dataset.labels.tolist()), dataset.X)


def _read_table(path, magic, what, keys, n_ids, ranges=()):
    """Read a line table: a `magic` header line of `k=v` fields, then one
    row per line of n_ids integer ids and `dim` finite coordinates.  Each
    (column, name, key) of `ranges` keeps that id column in [0, header[key]).

    Returns the header fields, the integer header values named by `keys`,
    an (N, n_ids) id array and an (N, dim) coordinate array.
    """
    lines = read_file(path, what, FormatError).splitlines()
    # the magic ends at a space or at the end of the line: "v12" is not "v1"
    if not lines or lines[0][:len(magic) + 1] not in (magic, magic + " "):
        raise FormatError(f"{path}: missing {what} header")
    header = _key_values(lines[0][len(magic):].split())
    try:
        ints = {key: int(header[key]) for key in keys}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad {what} header: {exc}") from None
    if ints["dim"] < 0:
        raise FormatError(f"{path}: bad {what} header: dim={ints['dim']}")
    width = n_ids + ints["dim"]
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    # ids and coordinates go into one flat list each; the coordinates are
    # copied into X every PARSE_CHUNK values, so that few float objects
    # are alive at once
    X = np.empty(len(body) * ints["dim"])
    flat_ids, flat_X, filled = [], [], 0

    def bad_line(lineno, problem):
        _check_int64(path, body, flat_ids, n_ids)   # ids too big on an earlier line
        raise FormatError(f"{path}:{lineno}: {problem}") from None

    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != width:
            bad_line(lineno, f"expected {width} fields, got {len(parts)}")
        try:
            flat_ids.extend(map(int, parts[:n_ids]))
            flat_X.extend(map(float, parts[n_ids:]))
        except ValueError as exc:
            bad_line(lineno, exc)
        if len(flat_X) >= PARSE_CHUNK:
            X[filled:filled + len(flat_X)] = flat_X
            filled += len(flat_X)
            flat_X.clear()
    X[filled:] = flat_X
    X = X.reshape(len(body), ints["dim"])
    try:
        ids = np.array(flat_ids, dtype=np.int64).reshape(len(body), n_ids)
    except OverflowError:
        _check_int64(path, body, flat_ids, n_ids)
        raise
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}:{body[int(np.argmin(finite))][0]}: non-finite coordinate")
    for column, name, key in ranges:
        bad = (ids[:, column] < 0) | (ids[:, column] >= ints[key])
        if bad.any():
            row = int(np.argmax(bad))
            raise FormatError(f"{path}:{body[row][0]}: {name} id {ids[row, column]} "
                              f"outside [0, {ints[key]})")
    return header, ints, ids, X


def _check_int64(path, body, flat_ids, n_ids):
    """Raise the FormatError of the first line whose ids, all parsed into
    `flat_ids`, do not fit in int64: a line's ids are checked before its
    coordinates are parsed and before any later line."""
    for row in range(len(flat_ids) // n_ids):
        try:
            np.array(flat_ids[row * n_ids:(row + 1) * n_ids], dtype=np.int64)
        except OverflowError as exc:
            raise FormatError(f"{path}:{body[row][0]}: {exc}") from None


def read_dataset(path):
    header, ints, ids, X = _read_table(path, DATA_MAGIC, "dataset",
                                       ("domains", "classes", "dim", "seed"), n_ids=2)
    try:
        return Dataset(X, ids[:, 1], ids[:, 0], n_classes=ints["classes"],
                       n_domains=ints["domains"], generator=header.get("generator", "unknown"),
                       params=_key_values(header.get("params", "").split(";")),
                       seed=ints["seed"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# --- embedding dumps --------------------------------------------------------

def write_embeddings(records, path, n_classes, n_domains):
    records = list(records)
    if not records:
        raise FormatError("refusing to write an empty embedding dump")
    _write_table(path, f"{DUMP_MAGIC} dim={len(records[0].vector)} classes={n_classes} "
                       f"domains={n_domains}",
                 ((r.sample_id, r.domain_id, r.class_id) for r in records),
                 np.array([r.vector for r in records], dtype=np.float64))


def read_embeddings(path):
    _, meta, ids, X = _read_table(path, DUMP_MAGIC, "embedding dump",
                                  ("dim", "classes", "domains"), n_ids=3,
                                  ranges=((1, "domain", "domains"), (2, "class", "classes")))
    if not len(X):
        raise FormatError(f"{path}: dump has no records")
    records = [
        EmbeddingRecord(sample_id=int(i), domain_id=int(m), class_id=int(c), vector=x)
        for (i, m, c), x in zip(ids.tolist(), X)
    ]
    return records, meta


# --- checkpoints ------------------------------------------------------------

def _write_array(lines, key, arr):
    arr = np.asarray(arr, dtype=np.float64)
    lines.append(f"array.{key}.shape = {render(arr.shape)}")
    lines.append(f"array.{key}.data = {','.join(map(fmt, arr.reshape(-1).tolist()))}")


def save_checkpoint(model, path):
    """Serialize a Model of either kind, bit-exactly."""
    spec = model.spec
    lines = [CKPT_MAGIC, f"kind = {model.kind}"]
    lines += [f"provenance.{key} = {value}" for key, value in model.provenance.items()]
    lines.append(f"arch.input_dim = {model.input_dim}")
    lines.append(f"arch.n_classes = {model.n_classes}")
    lines += [f"arch.{f.name} = {render(getattr(spec, f.name))}" for f in fields(ModelSpec)]
    for name, tensor in model.parameters().items():
        _write_array(lines, f"param.{name}", tensor.data)
    for name, arr in model.stats().items():
        _write_array(lines, f"stat.{name}", arr)
    write_text(path, "\n".join(lines) + "\n")


def load_checkpoint(path):
    """Rebuild the checkpointed Model, its kind and provenance included."""
    text = read_file(path, "checkpoint", FormatError)
    if text.splitlines()[:1] != [CKPT_MAGIC]:
        raise FormatError(f"{path}: not a checkpoint file")
    # the magic line reads as a comment
    entries = {key: value for _, key, value in key_values(text, path, FormatError)}
    kind = entries.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{path}: checkpoint kind must be one of {KINDS}, got {kind!r}")
    try:
        spec = ModelSpec(**{f.name: parser(f)(entries[f"arch.{f.name}"])
                            for f in fields(ModelSpec)})
        spec.validate()
        input_dim = int(entries["arch.input_dim"])
        n_classes = int(entries["arch.n_classes"])
        if input_dim < 1 or n_classes < 1:
            raise ValueError(f"arch.input_dim and arch.n_classes must be at least 1, "
                             f"got {input_dim} and {n_classes}")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad checkpoint metadata: {exc}") from None
    model = Model(input_dim, n_classes, spec, np.random.default_rng(0))
    state = {}
    for group, table in (("param", model.parameters()), ("stat", model.stats())):
        for name in table:
            skey, dkey = f"array.{group}.{name}.shape", f"array.{group}.{name}.data"
            if skey not in entries or dkey not in entries:
                raise FormatError(f"{path}: checkpoint is missing array {name!r}")
            dims = entries[skey].split(",") if entries[skey] else []
            if not all(d.strip().isdecimal() for d in dims):
                raise FormatError(f"{path}: array {name!r} has shape {entries[skey]!r}: each "
                                  "dimension must be a non-negative integer")
            shape = tuple(map(int, dims))
            try:
                values = np.array([float(v) for v in entries[dkey].split(",")])
            except ValueError as exc:
                raise FormatError(f"{path}: corrupt data for {name!r}: {exc}") from None
            if not np.isfinite(values).all():
                raise FormatError(f"{path}: array {name!r} holds a non-finite value at "
                                  f"index {int(np.argmin(np.isfinite(values)))}")
            if name.endswith("running_var") and (values < 0.0).any():
                raise FormatError(f"{path}: array {name!r} holds a negative variance at "
                                  f"index {int(np.argmax(values < 0.0))}")
            if values.size != math.prod(shape):
                raise FormatError(f"{path}: array {name!r} size does not match shape {shape}")
            state[name] = values.reshape(shape)
    if sum(key.startswith("array.") for key in entries) != 2 * len(state):
        raise FormatError(f"{path}: checkpoint holds arrays its architecture has no slot for")
    try:
        model.set_state(state)
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    model.kind = kind
    model.provenance = {key[len("provenance."):]: value
                        for key, value in entries.items() if key.startswith("provenance.")}
    return model
