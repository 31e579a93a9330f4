"""Line-oriented file formats: dataset dumps, embedding dumps, checkpoints.

Every float is printed with 17 significant digits, which round-trips
IEEE float64 exactly, so dump -> load -> dump is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .connectivity import EmbeddingRecord
from .nets import AnchorEncoder, Model, ModelSpec
from .synthdata import Dataset

DATA_MAGIC = "# dccl-data v1"
DUMP_MAGIC = "# dccl-dump v1"
CKPT_MAGIC = "# dccl-checkpoint v1"


class FormatError(ValueError):
    """Malformed dump, dataset or checkpoint file."""


def fmt(x):
    return f"{float(x):.17g}"


def _params_str(params):
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


# --- dataset dumps ----------------------------------------------------------

def write_dataset(dataset, path):
    lines = [
        f"{DATA_MAGIC} generator={dataset.generator} domains={dataset.n_domains} "
        f"classes={dataset.n_classes} dim={dataset.dim} seed={dataset.seed} "
        f"params={_params_str(dataset.params)}"
    ]
    for i in range(len(dataset)):
        coords = ",".join(fmt(v) for v in dataset.X[i])
        lines.append(f"{int(dataset.domains[i])},{int(dataset.labels[i])},{coords}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path, magic, what, keys, n_ids):
    """Read a line table: a `magic` header line of `k=v` fields, then one
    row per line of n_ids integer ids and `dim` finite coordinates.

    Returns the header fields, the integer header values named by `keys`,
    an (N, n_ids) id array and an (N, dim) coordinate array.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(magic):
        raise FormatError(f"{path}: missing {what} header")
    header = dict(part.split("=", 1) for part in lines[0][len(magic):].split() if "=" in part)
    try:
        ints = {key: int(header[key]) for key in keys}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad {what} header: {exc}") from None
    if ints["dim"] < 0:
        raise FormatError(f"{path}: bad {what} header: dim={ints['dim']}")
    width = n_ids + ints["dim"]
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    ids = np.empty((len(body), n_ids), dtype=np.int64)
    X = np.empty((len(body), ints["dim"]))
    for row, (lineno, line) in enumerate(body):
        parts = line.split(",")
        if len(parts) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        try:
            ids[row] = [int(v) for v in parts[:n_ids]]
            X[row] = [float(v) for v in parts[n_ids:]]
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}:{body[int(np.argmin(finite))][0]}: non-finite coordinate")
    return header, ints, ids, X


def read_dataset(path):
    header, ints, ids, X = _read_table(path, DATA_MAGIC, "dataset",
                                       ("domains", "classes", "dim", "seed"), n_ids=2)
    params = dict(
        part.split("=", 1) for part in header.get("params", "").split(";") if "=" in part
    )
    return Dataset(X, ids[:, 1], ids[:, 0], n_classes=ints["classes"],
                   n_domains=ints["domains"], generator=header.get("generator", "unknown"),
                   params=params, seed=ints["seed"])


# --- embedding dumps --------------------------------------------------------

def write_embeddings(records, path, n_classes, n_domains):
    records = list(records)
    if not records:
        raise FormatError("refusing to write an empty embedding dump")
    dim = len(records[0].vector)
    lines = [f"{DUMP_MAGIC} dim={dim} classes={n_classes} domains={n_domains}"]
    for r in records:
        coords = ",".join(fmt(v) for v in r.vector)
        lines.append(f"{r.sample_id},{r.domain_id},{r.class_id},{coords}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_embeddings(path):
    _, meta, ids, X = _read_table(path, DUMP_MAGIC, "embedding dump",
                                  ("dim", "classes", "domains"), n_ids=3)
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
    shape = ",".join(str(s) for s in arr.shape) if arr.ndim else ""
    lines.append(f"array.{key}.shape = {shape}")
    lines.append(f"array.{key}.data = {','.join(fmt(v) for v in arr.reshape(-1))}")


def save_checkpoint(obj, path):
    """Serialize a Model or a frozen AnchorEncoder, bit-exactly."""
    if isinstance(obj, AnchorEncoder):
        kind, model = "anchor", obj.model
        provenance = {
            "seed": obj.seed,
            "data_hash": obj.data_hash,
            "val_accuracy": fmt(obj.val_accuracy),
        }
    elif isinstance(obj, Model):
        kind, model = "model", obj
        provenance = dict(obj.provenance)
    else:
        raise TypeError(f"cannot checkpoint {type(obj).__name__}")
    spec = model.spec
    lines = [CKPT_MAGIC, f"kind = {kind}"]
    for key, value in provenance.items():
        lines.append(f"provenance.{key} = {value}")
    lines.append(f"arch.input_dim = {model.input_dim}")
    lines.append(f"arch.n_classes = {model.n_classes}")
    lines.append(f"arch.encoder_hidden = {','.join(str(w) for w in spec.encoder_hidden)}")
    lines.append(f"arch.embed_dim = {spec.embed_dim}")
    lines.append(f"arch.head_hidden = {spec.head_hidden}")
    lines.append(f"arch.batchnorm = {str(spec.batchnorm).lower()}")
    lines.append(f"arch.with_gen = {str(spec.with_gen).lower()}")
    for name, tensor in model.parameters().items():
        _write_array(lines, f"param.{name}", tensor.data)
    for name, arr in model.stats().items():
        _write_array(lines, f"stat.{name}", arr)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Rebuild the checkpointed object; returns a Model or AnchorEncoder."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    fields = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if " = " not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split(" = ", 1)
        fields[key] = value
    try:
        kind = fields["kind"]
        spec = ModelSpec(
            encoder_hidden=tuple(int(v) for v in fields["arch.encoder_hidden"].split(",")),
            embed_dim=int(fields["arch.embed_dim"]),
            head_hidden=int(fields["arch.head_hidden"]),
            batchnorm=fields["arch.batchnorm"] == "true",
            with_gen=fields["arch.with_gen"] == "true",
        )
        input_dim = int(fields["arch.input_dim"])
        n_classes = int(fields["arch.n_classes"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad checkpoint metadata: {exc}") from None
    model = Model(input_dim, n_classes, spec, np.random.default_rng(0))
    state = {}
    targets = {**model.parameters(), **model.stats()}
    for name in targets:
        skey, dkey = f"array.param.{name}.shape", f"array.param.{name}.data"
        if skey not in fields:
            skey, dkey = f"array.stat.{name}.shape", f"array.stat.{name}.data"
        if skey not in fields or dkey not in fields:
            raise FormatError(f"{path}: checkpoint is missing array {name!r}")
        shape = tuple(int(s) for s in fields[skey].split(",")) if fields[skey] else ()
        try:
            values = np.array([float(v) for v in fields[dkey].split(",")])
        except ValueError as exc:
            raise FormatError(f"{path}: corrupt data for {name!r}: {exc}") from None
        expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if values.size != expected:
            raise FormatError(f"{path}: array {name!r} size does not match shape {shape}")
        state[name] = values.reshape(shape)
    model.set_state(state)
    if kind == "anchor":
        return AnchorEncoder(
            model,
            seed=int(fields.get("provenance.seed", "0")),
            data_hash=fields.get("provenance.data_hash", ""),
            val_accuracy=float(fields.get("provenance.val_accuracy", "nan")),
        )
    if kind == "model":
        model.provenance = {
            key[len("provenance."):]: value
            for key, value in fields.items() if key.startswith("provenance.")
        }
        return model
    raise FormatError(f"{path}: unknown checkpoint kind {kind!r}")
