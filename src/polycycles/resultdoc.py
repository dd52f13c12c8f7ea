"""Structured result documents.

Analysis output is a flat text format: one `dotted.key = value` line per
field, nested structure encoded in the key path, list elements by numeric
path segment.  A value re-reads as what it was: an int with int(), a float
with float() (repr keeps every bit), a string with json.loads, and none,
true, false, nan, inf and -inf as those words.  Scans additionally emit
RFC-4180 CSV with a header row and '.' decimal separator.

A block that mirrors a dataclass is that dataclass (``block``): a field
added to the dataclass appears in every document that carries it.  Blocks
that rename, reorder or leave out fields are written where they are built.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from typing import Any, Iterable, Mapping, Sequence

from .errors import ModelError

__all__ = ["block", "dumps", "render_csv"]

_SCALARS = (str, int, float, bool, type(None))


def block(obj: Any) -> dict[str, Any]:
    """A dataclass instance's fields in declaration order, tuples as lists."""
    values = {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}


def _flatten(prefix: str, node: Any, out: list[tuple[str, Any]]) -> None:
    if isinstance(node, Mapping):
        for key, value in node.items():
            key = str(key)
            if not key or "." in key or "=" in key or key.strip() != key:
                raise ModelError(f"unusable document key {key!r} under {prefix!r}")
            _flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _flatten(f"{prefix}.{i}" if prefix else str(i), value, out)
    elif isinstance(node, _SCALARS):
        out.append((prefix, node))
    else:
        raise ModelError(f"unserializable value of type {type(node).__name__} at {prefix!r}")


def _render(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        # cast first: repr of float subclasses (numpy scalars) is not re-readable
        return repr(float(value))
    return json.dumps(value)


def dumps(doc: Mapping[str, Any]) -> str:
    """Serialize a nested document to dotted-key lines."""
    out: list[tuple[str, Any]] = []
    _flatten("", doc, out)
    return "".join(f"{key} = {_render(value)}\n" for key, value in out)


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _render(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """RFC-4180 table: header row, CRLF line ends, repr floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()
