"""The three file formats round-trip byte for byte, and artifact writes are
atomic: a failed write leaves the old file, never part of a new one."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dccl import formats
from dccl.connectivity import EmbeddingRecord
from dccl.nets import Model, ModelSpec
from dccl.synthdata import Dataset

from conftest import model_checksum

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
WORDS = st.text(alphabet="abcxyz_0123456789.", min_size=1, max_size=8)


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


@st.composite
def datasets(draw):
    n_classes, n_domains = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n, dim = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    return Dataset(draw(finite_arrays((n, dim))),
                   draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_classes - 1))),
                   draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_domains - 1))),
                   n_classes, n_domains, generator=draw(WORDS),
                   params=draw(st.dictionaries(WORDS, WORDS, max_size=3)),
                   seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def embedding_records(draw):
    n, dim = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    ids = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 5), st.integers(0, 5)),
                        min_size=n, max_size=n))
    return [EmbeddingRecord(sample_id=i, class_id=c, domain_id=m, vector=x)
            for (i, m, c), x in zip(ids, draw(finite_arrays((n, dim))))]


@st.composite
def models(draw):
    spec = ModelSpec(encoder_hidden=tuple(draw(st.lists(st.integers(1, 5), min_size=1,
                                                        max_size=3))),
                     embed_dim=draw(st.integers(1, 5)), head_hidden=0, batchnorm=False,
                     with_gen=True)
    model = Model(draw(st.integers(1, 4)), draw(st.integers(1, 4)), spec,
                  np.random.default_rng(0))
    for tensor in model.parameters().values():
        tensor.data = draw(finite_arrays(tensor.data.shape))
    model.provenance = draw(st.dictionaries(WORDS, WORDS, max_size=3))
    return model


def rewrite(write, read, obj):
    """The bytes `write` makes of obj, the object `read` makes of them, and
    the bytes `write` makes of that.  No temp file may be left behind."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
        write(obj, first)
        again = read(first)
        write(again, second)
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["first.txt", "second.txt"]
        return first.read_bytes(), again, second.read_bytes()


@PROPERTY
@given(datasets())
def test_dataset_dump_round_trips_byte_for_byte(ds):
    first, again, second = rewrite(formats.write_dataset, formats.read_dataset, ds)
    assert first == second
    assert again.X.tobytes() == ds.X.tobytes()
    assert np.array_equal(again.labels, ds.labels)
    assert np.array_equal(again.domains, ds.domains)


@pytest.mark.parametrize("chunk", [1, 4, 7])
def test_table_read_copies_coordinates_out_in_chunks(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(chunk)
    ds = Dataset(rng.standard_normal((13, 3)), rng.integers(0, 2, 13), rng.integers(0, 3, 13),
                 2, 3, generator="g", params={}, seed=0)
    path = tmp_path / "data.txt"
    formats.write_dataset(ds, path)
    monkeypatch.setattr(formats, "PARSE_CHUNK", chunk)
    again = formats.read_dataset(path)
    assert again.X.tobytes() == ds.X.tobytes()
    assert np.array_equal(again.labels, ds.labels)
    assert np.array_equal(again.domains, ds.domains)


@pytest.mark.parametrize("rows", [
    "0,0,0,1.0,2.0\n99999999999999999999,0,0,1.0,2.0\n1,1,0,0.5,0.5\n",
    "0,0,0,1.0,2.0\n-99999999999999999999,0,0,1.0,zz\n",
    "0,0,0,1.0,2.0\n99999999999999999999,0,0,1.0,2.0\n1,1,0,0.5\n",
    "0,0,0,1.0,2.0\n99999999999999999999,0,0,1.0,2.0\n1,x,0,0.5,0.5\n",
], ids=["alone", "bad-coordinate-after", "short-line-after", "bad-id-after"])
def test_id_too_big_for_int64_names_its_line_first(tmp_path, rows):
    # ids are checked line by line, each before its own coordinates
    path = tmp_path / "emb.txt"
    path.write_text("# dccl-dump v1 dim=2 classes=2 domains=2\n" + rows)
    with pytest.raises(formats.FormatError) as err:
        formats.read_embeddings(path)
    assert str(err.value) == f"{path}:3: Python int too large to convert to C long"


@PROPERTY
@given(embedding_records(), st.integers(0, 3), st.integers(0, 3))
def test_embedding_dump_round_trips_byte_for_byte(records, more_classes, more_domains):
    # the header counts cover every id, and up to 3 more
    n_classes = max(r.class_id for r in records) + 1 + more_classes
    n_domains = max(r.domain_id for r in records) + 1 + more_domains
    first, again, second = rewrite(
        lambda recs, path: formats.write_embeddings(recs, path, n_classes, n_domains),
        lambda path: formats.read_embeddings(path)[0], records)
    assert first == second
    assert [(r.sample_id, r.class_id, r.domain_id, r.vector.tobytes()) for r in again] == [
        (r.sample_id, r.class_id, r.domain_id, r.vector.tobytes()) for r in records]


@pytest.mark.parametrize("version", ["v12", "v1x"])
@pytest.mark.parametrize("read, what, table", [
    (formats.read_dataset, "dataset",
     "# dccl-data {} generator=g domains=1 classes=1 dim=2 seed=0 params=\n0,0,1.0,2.0\n"),
    (formats.read_embeddings, "embedding dump",
     "# dccl-dump {} dim=2 classes=1 domains=1\n0,0,0,1.0,2.0\n"),
], ids=["dataset", "dump"])
def test_a_later_version_header_is_not_read_as_v1(tmp_path, read, what, table, version):
    path = tmp_path / "table.txt"
    path.write_text(table.format(version))
    with pytest.raises(formats.FormatError) as err:
        read(path)
    assert str(err.value) == f"{path}: missing {what} header"
    path.write_text(table.format("v1"))
    read(path)  # the same table as v1 reads


@PROPERTY
@given(models())
def test_checkpoint_round_trips_byte_for_byte(model):
    first, again, second = rewrite(formats.save_checkpoint, formats.load_checkpoint, model)
    assert first == second
    assert again.spec == model.spec
    assert model_checksum(again) == model_checksum(model)


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "result.csv"
    formats.write_text(path, "key,value\nseed,0\n")
    with pytest.raises(UnicodeEncodeError):
        formats.write_text(path, "key,value\nseed,\udcff\n")
    assert path.read_text() == "key,value\nseed,0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result.csv"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        formats.write_text(tmp_path / "result.csv", "\udcff")
    assert list(tmp_path.iterdir()) == []


def test_write_failing_at_the_rename_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "summary.csv"
    path.write_text("old\n")

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="disk full"):
        formats.write_text(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
