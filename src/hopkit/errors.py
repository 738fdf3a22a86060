"""Shared exception types, the one JSON-lines reader and formatter, and the one
writer every output file but the index snapshot goes through."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable


class HopkitError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class InsufficientCandidatesError(HopkitError):
    pass


class SnapshotError(HopkitError):
    pass


class SplitSizeError(HopkitError):
    pass


def read_jsonl(path: str | Path, parse: Callable[[dict], object], key: Callable) -> list:
    """``parse(row)`` for every row of a JSON-lines file, in file order.

    Lines end at LF, so CRLF files read the same.  Blank lines are skipped;
    every other line must be a JSON object.  Malformed UTF-8, bad JSON
    (nesting too deep to decode included), a row that is not an object, and
    a KeyError, TypeError, ValueError or OverflowError from ``parse`` become
    a HopkitError naming path:line, so a parse function only has to say
    what is wrong with the row.  A row whose ``key(parse(row))`` repeats
    an earlier row's is a bad row too.
    """
    parsed = []
    first_line: dict = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                value = parse(require_type(json.loads(line), dict, "row"))
                row_key = key(value)
                if row_key in first_line:
                    raise ValueError(f"id {row_key!r} repeats line {first_line[row_key]}")
                first_line[row_key] = lineno
                parsed.append(value)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise HopkitError(
                    f"{path}:{lineno}: bad row: {type(exc).__name__}: {exc}"
                ) from exc
    return parsed


def jsonl(rows) -> str:
    """JSON-lines text: one ``json.dumps(row)`` per row, each ending in LF."""
    return "".join(json.dumps(row) + "\n" for row in rows)


def write_output(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, creating missing parent
    directories.  A plain write, not a temporary file renamed into place,
    so /dev/stdout and FIFOs work as paths."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, "utf-8")


def require_type(value, kind: type, what: str):
    """``value`` if it is a ``kind``; TypeError naming ``what`` otherwise.
    JSON true and false are bools, which Python counts as ints; they are
    never taken for a number."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return value
