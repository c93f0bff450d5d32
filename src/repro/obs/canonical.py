"""Canonical JSON: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``.

Every journal line, recording line, event export and digest is that text
of its document.  :func:`dump` writes it with one encoder built at import
(``json.dumps`` with these arguments builds a fresh encoder per call);
:func:`number`, :func:`quote`, :func:`floats` and :func:`quoted` spell
single values and whole columns the same way for line templates.
"""

from __future__ import annotations

import json
import json.encoder
from math import isfinite
from typing import Iterable, Iterator

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: JSON spelling of a 0/1 flag, indexed by it.
BOOL = ("false", "true")

#: One ``str`` as a JSON string.
quote = json.encoder.encode_basestring_ascii


def canonical_encoder():
    """A reusable canonical ``json.dumps``: CPython's C encoder, built once
    and without circular-reference markers (a dict kept across calls would
    hold stale ids after a failed encode), or one ``JSONEncoder`` when
    ``json.encoder.c_make_encoder`` is missing."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    encode = make(None, encoder.default, quote, None, ":", ",", True, False, True)

    def dump(doc) -> str:
        """The canonical JSON text of *doc*."""
        return "".join(encode(doc, 0))

    return dump


dump = canonical_encoder()


def number(value) -> str:
    """*value* as :func:`dump` spells it; a float or None without the encoder."""
    if value.__class__ is float:
        return repr(value) if isfinite(value) else _NON_FINITE[repr(value)]
    return "null" if value is None else dump(value)


def floats(column: Iterable[float]) -> Iterator[str]:
    """Each double of *column* as ``json.dumps`` spells it."""
    if all(map(isfinite, column)):
        return map(repr, column)
    return (repr(v) if isfinite(v) else _NON_FINITE[repr(v)] for v in column)


def quoted(column: list[str]) -> Iterator[str]:
    """Each string of *column* as a JSON string, escaped once per distinct one."""
    return map({text: quote(text) for text in set(column)}.__getitem__, column)
