import json

import pytest

from soke.artifacts import read_json, write_atomic, write_json, write_jsonl
from soke.errors import InputError

PAYLOAD = {"b": [1, 2.5, None], "a": {"y": "text", "x": True}}


def test_write_json_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, PAYLOAD)
    assert path.read_text() == json.dumps(PAYLOAD, indent=2, sort_keys=True) + "\n"


def test_write_jsonl_bytes(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [PAYLOAD, {"z": 1}])
    assert path.read_text() == json.dumps(PAYLOAD) + "\n" + json.dumps({"z": 1}) + "\n"


def test_creates_parent_directory(tmp_path):
    path = tmp_path / "a" / "b" / "out.json"
    write_json(path, PAYLOAD)
    assert json.loads(path.read_text()) == PAYLOAD


def test_failed_write_leaves_earlier_file(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, PAYLOAD)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": 1, "b": object()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_failed_binary_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.bin"
    with pytest.raises(RuntimeError):
        with write_atomic(path, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ['{"a": ', "[1, 2]", '{"b": 1}', "\xff"])
def test_read_json_names_the_file(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(InputError, match="in.json"):
        read_json(path, lambda payload: payload["a"])
