"""The run-directory file format: atomic writes, the JSON and JSON-lines
codecs, and strict decoding of JSON objects into dataclasses.

Every file a stage leaves behind is written to `<path>.tmp` in the same
directory and renamed over `path`, so a partial write never appears under
the final name. Readers turn malformed content into InputError naming the
file.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar, get_args, get_origin, get_type_hints

from .errors import ConfigError, InputError, SokeError

T = TypeVar("T")


@contextlib.contextmanager
def write_atomic(path: str | Path, mode: str = "w") -> Iterator[Any]:
    """Open `<path>.tmp` for writing and rename it over `path` on success.

    Creates the parent directory. On an exception the tmp file is removed
    and an earlier file at `path` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: Any) -> None:
    """One JSON document: two-space indent, sorted keys, trailing newline."""
    with write_atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    """One compact JSON object per line."""
    with write_atomic(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_json(path: str | Path, parse: Callable[[Any], T] = lambda payload: payload) -> T:
    """`parse` applied to a JSON file's payload; undecodable JSON or a payload
    `parse` rejects raises InputError naming the file."""
    path = Path(path)
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError, SokeError) as exc:
        raise InputError(f"{path}: malformed file: {exc}") from exc


def _coerce(value: Any, target_type: Any, path: str, complete: bool) -> Any:
    """Check a JSON value against a field type: a nested dataclass, a
    fixed-length tuple, a `tuple[T, ...]` of any length, or a scalar.
    Integers widen to float; bool is not a number here."""
    if is_dataclass(target_type):
        return from_dict(target_type, value, path, complete=complete)
    if get_origin(target_type) is tuple:
        item_types = get_args(target_type)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if item_types[1:] == (Ellipsis,):
            item_types = item_types[:1] * len(value)
        if len(value) != len(item_types):
            raise ConfigError(f"{path}: expected a list of {len(item_types)} items, got {value!r}")
        return tuple(
            _coerce(item, item_type, f"{path}[{i}]", complete)
            for i, (item, item_type) in enumerate(zip(value, item_types))
        )
    if target_type is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if (isinstance(value, bool) and target_type is not bool) or not isinstance(value, target_type):
        raise ConfigError(f"{path}: expected {target_type.__name__}, got {value!r}")
    return value


def from_dict(cls: type[T], data: Any, path: str = "", complete: bool = False) -> T:
    """A dataclass built from a JSON object. Unknown keys, values of the wrong
    type and missing keys without a default raise ConfigError; `complete`
    makes every key required, at every level (files the package wrote
    itself hold them all)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    types = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {sorted(unknown)}")
    missing = names - set(data) if complete else set()
    if missing:
        raise ConfigError(f"{path or cls.__name__}: missing keys {sorted(missing)}")
    kwargs = {
        name: _coerce(value, types[name], f"{path}.{name}" if path else name, complete)
        for name, value in data.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc
