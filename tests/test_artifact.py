"""The artifact codec: atomic JSON and CSV writes, and reads that name the file."""

import json
import os

import numpy as np
import pytest

from mzmesh import artifact

# Each writer as (write to path, a payload, a payload it cannot write).
WRITERS = {
    "json": (artifact.write, {"schema": "x-v1", "value": 1}, {"value": object()}),
    "csv": (lambda path, rows: artifact.write_csv(path, ["a", "b"], rows), [[1, 2.5]], [[1], 2]),
}


def test_write_format(tmp_path):
    path = tmp_path / "a.json"
    artifact.write(path, {"b": [1, 2.5], "a": None})
    assert path.read_text() == '{\n "a": null,\n "b": [\n  1,\n  2.5\n ]\n}\n'


def test_write_csv_format(tmp_path):
    path = tmp_path / "a.csv"
    artifact.write_csv(path, ["name", "x", "y"],
                       [["U_0_0", np.float64(-22.199593469062208), None], ["g", 0.1, 3]])
    assert path.read_bytes() == b"name,x,y\r\nU_0_0,-22.199593469062208,\r\ng,0.1,3\r\n"


def test_failed_write_keeps_the_old_file(tmp_path):
    for kind, (write, good, bad) in WRITERS.items():
        path = tmp_path / f"a.{kind}"
        write(path, good)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write(path, bad)
        assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "a.json"]


def test_interrupted_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    for kind, (write, good, _) in WRITERS.items():
        path = tmp_path / f"a.{kind}"
        write(path, good)
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(artifact.os, "replace", fail)
            with pytest.raises(OSError):
                write(path, good)
        assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "a.json"]


def test_write_respects_the_umask(tmp_path):
    path = tmp_path / "a.json"
    artifact.write(path, {})
    mask = os.umask(0)
    os.umask(mask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~mask


@pytest.mark.parametrize("text,message", [
    (None, "missing thing file"),
    ("{not json", "bad thing file"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"schema": "y-v1"}', "expected schema 'x-v1', got 'y-v1'"),
    ('{"schema": "x-v1"}', "missing field 'value'"),
    ('{"schema": "x-v1", "value": "v"}', "could not convert"),
])
def test_read_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "a.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(artifact.ArtifactError) as exc:
        artifact.read(path, lambda d: float(artifact.checked(d, "x-v1")["value"]), "thing")
    assert message in str(exc.value) and str(path) in str(exc.value)


def test_read_round_trip(tmp_path):
    path = tmp_path / "a.json"
    artifact.write(path, {"schema": "x-v1", "value": 0.1})
    assert artifact.read(path, lambda d: artifact.checked(d, "x-v1")["value"], "thing") == 0.1
    assert json.loads(path.read_text()) == {"schema": "x-v1", "value": 0.1}
