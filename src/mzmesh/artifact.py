"""The one JSON codec of every mzmesh file: an atomic writer and a checking reader.

Every artifact is written as ``indent=1`` JSON with sorted keys and a
trailing newline, through a temporary file in the target's directory that
replaces the target only once complete.  The reader turns every way a file
can be unreadable (missing, not JSON, not an object, wrong ``schema`` tag,
a missing or ill-typed field) into one :class:`ArtifactError` naming it.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class ArtifactError(ValueError):
    """An input file that cannot be read; the message names the file."""


def write(path, payload) -> None:
    """Write ``payload`` as JSON to ``path``; on any failure the old file stays."""
    path = Path(path)
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    tmp = path.with_name(f".tmp-{secrets.token_hex(8)}-{path.name}")
    fh = open(tmp, "x")  # a new file, with the mode the umask gives
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def checked(data, schema: str | None = None) -> dict:
    """``data`` itself, once it is a JSON object carrying ``schema`` (if given)."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if schema is not None and data.get("schema") != schema:
        raise ValueError(f"expected schema {schema!r}, got {data.get('schema')!r}")
    return data


def read(path, build: Callable[[dict], T], what: str) -> T:
    """``build`` applied to the JSON object in ``path``, a ``what`` file."""
    try:
        with open(path) as fh:
            return build(checked(json.load(fh)))
    except FileNotFoundError:
        raise ArtifactError(f"missing {what} file: {path}") from None
    except KeyError as exc:
        raise ArtifactError(f"bad {what} file {path}: missing field {exc}") from None
    except (OSError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ArtifactError(f"bad {what} file {path}: {exc}") from None
