"""Canonical JSON reports: sorted keys, shortest round-trip floats, no NaN.

Identical in-memory documents serialize to identical bytes, so report diffs
are meaningful. Files are replaced atomically and readable by their owner
only. The field checks here validate documents read back from outside;
a file that is not UTF-8 text, or not JSON, is a typed error naming it.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import fields

from .errors import MalformedDocumentError, MalformedLineError, ReportIOError


def canonical_json(obj) -> str:
    """Deterministic rendering; floats use repr (shortest round-trip form).

    NaN or an infinity anywhere in ``obj`` raises ReportIOError.
    """
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ReportIOError(f"cannot serialize report: {exc}") from exc


def write_private(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file and one rename.

    The temporary file is created with mode 0600 in the target directory, so
    a reader never sees a partial file and no artifact (the secret bundle
    included) is readable by other users.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ReportIOError(f"cannot write {path}: {exc}") from exc


def emit_report(report: dict, path: str):
    write_private(path, canonical_json(report))


def read_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ReportIOError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise MalformedDocumentError(f"{path} is not a JSON document: {exc}") from exc


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``; a byte that does not decode raises MalformedLineError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLineError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from exc


def field_kinds(cls) -> dict:
    """The JSON schema of a dataclass of scalars (string annotations): each field's name and kind."""
    return {f.name: {"int": int, "float": float, "bool": bool, "str": str}[f.type] for f in fields(cls)}


def _numbers(values: list, kind) -> bool:
    """Whether every value is a finite JSON number, and an integer for kind int."""
    try:
        return set(map(type, values)) <= {int, kind} and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def check_json(value, schema, where: str, error: type[Exception]):
    """Check a JSON value against ``schema``; a mismatch raises ``error`` naming where.

    A schema is a kind (int; float, any finite number; bool; str), a dict of
    field schemas (the object must have exactly these fields), or a one-item
    list holding the schema of every element.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict) or value.keys() != schema.keys():
            raise error(f"{where} must be an object with exactly the fields {sorted(schema)}")
        for key, field in schema.items():
            check_json(value[key], field, f"{where}.{key}", error)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise error(f"{where} must be a list")
        if schema[0] in (int, float):  # number lists can be long: check them in one pass
            if not _numbers(value, schema[0]):
                raise error(f"{where} must be a list of finite numbers of kind {schema[0].__name__}")
        else:
            for i, item in enumerate(value):
                check_json(item, schema[0], f"{where}[{i}]", error)
    elif not (_numbers([value], schema) if schema in (int, float) else type(value) is schema):
        raise error(f"{where} must be of JSON kind {schema.__name__}")
