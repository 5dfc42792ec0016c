"""Shared exception types, the one reader of input documents and the one writer of artifacts.

Each document type (model, board, search and approximation configs, manifest
blocks, schedule descriptors) has a table giving each field one rule: a kind
of ``_KINDS`` and its arguments, where a kind ending in ``?`` also takes null.
``read`` checks a whole document; ``check`` applies tables to values already
held, as the dataclasses' ``__post_init__`` does. Failures raise ``SchemaError``.
Every JSON file the commands write is ``json_text``'s text, and every CSV but
the streamed evaluation log ``csv_text``'s.
"""

import csv
import io
import json
from collections.abc import Mapping

EXTENT_MAX = 2**31 - 1  # bounds every extent and count: products of two fit int64
INT64_MAX = 2**63 - 1
EXTENT = ("int", 1, EXTENT_MAX)
STRING = ("str",)
SEED = ("int", 0, INT64_MAX)


class VitmapError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(VitmapError):
    """An input document violates its schema or internal consistency rules."""


class InfeasibleTilesError(VitmapError):
    """Tile parameters violate the hardware constraints; callers should prune."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class EmptySearchSpaceError(VitmapError):
    """No feasible tile configuration exists for the given hardware."""


class StageError(VitmapError):
    """Pipeline failure tagged with the stage that produced it."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


def is_int(value) -> bool:
    """Whether ``value`` is an integer; a JSON boolean is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(values, lo, hi) -> bool:
    return all(is_int(v) and lo <= v <= hi for v in values)


# kind -> (what a value must be, its test); open number bounds keep out NaN and inf.
_KINDS = {
    "int": ("an integer in [{0}, {1}]", lambda v, lo, hi: is_int(v) and lo <= v <= hi),
    "number": ("a number in ({0}, {1})",
               lambda v, lo, hi: (is_int(v) or isinstance(v, float)) and lo < v < hi),
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "choice": ("one of {0}", lambda v, values: v in values),
    "int_map": ("an object of integers in [{0}, {1}]",
                lambda v, lo, hi: isinstance(v, Mapping) and _ints(v.values(), lo, hi)),
    "int_list": ("a list of integers in [{0}, {1}]",
                 lambda v, lo, hi: isinstance(v, list) and _ints(v, lo, hi)),
    "int_triples": ("a non-empty list of [x, slope, intercept] integer triples in [{0}, {1}]",
                    lambda v, lo, hi: isinstance(v, list) and v != [] and all(
                        isinstance(r, list) and len(r) == 3 and _ints(r, lo, hi) for r in v)),
}


def check(values: Mapping, *tables: Mapping) -> None:
    """Apply each table's rules to the values of the same names in ``values``, where present."""
    for table in tables:
        for name, (kind, *args) in table.items():
            if name not in values:
                continue
            nullable, value = kind.endswith("?"), values[name]
            wants, holds = _KINDS[kind.rstrip("?")]
            if not (nullable and value is None or holds(value, *args)):
                wants = wants.format(*args) + (" or null" if nullable else "")
                raise SchemaError(f"{name} must be {wants}, got {value!r}")


def json_object(doc, what: str) -> Mapping:
    """``doc``, checked to be a JSON object."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{what} must be a JSON object, got {doc!r}")
    return doc


def read(doc, what: str, required: Mapping, optional: Mapping = {},
         version: int | None = None) -> dict:
    """The fields of JSON object ``doc`` (``what`` in errors): all of ``required``,
    others only from ``optional``, each passing its rule; ``schema_version``, which
    must equal ``version`` where one is given, is checked and left out."""
    fields = dict(json_object(doc, what))
    if version is not None:
        got = fields.pop("schema_version", None)
        if not (is_int(got) and got == version):
            raise SchemaError(f"{what} schema_version must be {version}, got {got!r}")
    missing = [name for name in required if name not in fields]
    unknown = sorted(fields.keys() - required.keys() - optional.keys(), key=str)
    if missing or unknown:
        raise SchemaError(f"{what}: missing fields {missing}, unknown fields {unknown}")
    check(fields, required, optional)
    return fields


def json_text(payload) -> str:
    """A JSON artifact's text: two-space indent, sorted keys, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_text(header, rows) -> str:
    """A CSV artifact's text: ``header``, then ``rows``, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
