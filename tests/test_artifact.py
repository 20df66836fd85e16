"""The JSON artifact codec: atomic writes and reads that name the file."""

import json
import os

import pytest

from mzmesh import artifact


def test_write_format(tmp_path):
    path = tmp_path / "a.json"
    artifact.write(path, {"b": [1, 2.5], "a": None})
    assert path.read_text() == '{\n "a": null,\n "b": [\n  1,\n  2.5\n ]\n}\n'


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "a.json"
    artifact.write(path, {"schema": "x-v1", "value": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        artifact.write(path, {"schema": "x-v1", "value": object()})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["a.json"]


def test_interrupted_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    artifact.write(path, {"value": 1})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(artifact.os, "replace", fail)
    with pytest.raises(OSError):
        artifact.write(path, {"value": 2})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["a.json"]


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
