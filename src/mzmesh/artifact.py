"""The one codec of every mzmesh file: atomic writers and a checking reader.

Every file is written through a temporary file in the target's directory
that replaces the target only once complete: JSON as ``indent=1`` with
sorted keys and a trailing newline, CSV as :mod:`csv` writes it, with each
float as its shortest ``repr``.  The reader turns every way a JSON file can
be unreadable (missing, not JSON, not an object, wrong ``schema`` tag, a
missing or ill-typed field) into one :class:`ArtifactError` naming it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class ArtifactError(ValueError):
    """An input file that cannot be read; the message names the file."""


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as it is; on any failure the old file stays."""
    path = Path(path)
    tmp = path.with_name(f".tmp-{secrets.token_hex(8)}-{path.name}")
    fh = open(tmp, "x", newline="")  # a new file, with the mode the umask gives
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write(path, payload) -> None:
    """Write ``payload`` as JSON to ``path``; on any failure the old file stays."""
    _write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _cell(value):
    """A float cell (numpy's float64 is one) as its ``repr``; csv writes None as empty."""
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV ``header`` and ``rows`` to ``path``; on any failure the old file stays."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *([_cell(v) for v in row] for row in rows)])
    _write_atomic(path, buf.getvalue())


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
