"""Versioned JSONL run traces: one record object per line.

The header embeds the task, metadata and full run configuration, and names
the tool environment: its fault scripts and, by digest, its knowledge base,
whose articles live once per directory in a ``kb/<digest>.json`` side file
next to the trace. A trace and its ``kb/`` directory together are enough to
recompute every deterministic stage.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SCHEMA_VERSION = 3
# Version 1 headers embed the knowledge base, and versions 1 and 2 copy each
# profile and repair reply into its stage record; both are still read.
READABLE_VERSIONS = (1, 2, SCHEMA_VERSION)

# Keys dropped before structural comparison: wall-clock and output-location
# metadata, never semantic content.
VOLATILE_KEYS = ("wall_time", "timing", "trace_path")
_VOLATILE = frozenset(VOLATILE_KEYS)
_MISSING = object()


class TraceSchemaError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class TraceWriter:
    """Collects records in memory and, when given a path, appends JSONL lines."""

    def __init__(self, path: str | Path | None = None):
        self.path = str(path) if path else None
        self.records: list[dict] = []
        self._fh = open(self.path, "w", encoding="utf-8") if self.path else None

    def write(self, record: dict) -> None:
        """Keep the record and, with a path, append it as one JSON line."""
        self.records.append(record)
        if self._fh:
            self._fh.write(json.dumps(record, allow_nan=False) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


def read_trace(source: str | Path | list[dict]) -> list[dict]:
    """Records of a trace file (or an in-memory record list), header checked.

    Raises TraceSchemaError for a line that is not a JSON object or nests
    JSON too deeply to decode, naming its 1-based line number, and for a
    missing or unsupported header.
    """
    if isinstance(source, list):
        records = source
    else:
        records = []
        with open(source, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceSchemaError(f"line {number} is not valid JSON: {exc}") from None
                except RecursionError:
                    raise TraceSchemaError(f"line {number} nests JSON too deeply") from None
                if not isinstance(record, dict):
                    raise TraceSchemaError(f"line {number} is not a JSON object")
                records.append(record)
    if not records:
        raise TraceSchemaError("trace is empty")
    header = records[0]
    if header.get("type") != "header":
        raise TraceSchemaError("first trace record must be the header")
    if header.get("schema_version") not in READABLE_VERSIONS:
        raise TraceSchemaError(
            f"unsupported trace schema version {header.get('schema_version')!r}")
    return records


def strip_volatile(obj):
    """Recursively drop wall-clock fields so structural comparison is exact."""
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def structurally_equal(a, b) -> bool:
    """``strip_volatile(a) == strip_volatile(b)``, computed without copying.

    Dicts and lists are walked together. A member pair is first compared with
    ``x is y or x == y``, the test the containers' own ``==`` applies to their
    members, and only a pair that still differs is walked: equal subtrees
    cost one C-level compare and volatile keys are skipped at any depth.
    """
    if isinstance(a, dict):
        if not isinstance(b, dict):
            return False
        kept = 0
        for key, x in a.items():
            if key in _VOLATILE:
                continue
            kept += 1
            y = b.get(key, _MISSING)
            if not (x is y or x == y or y is not _MISSING and structurally_equal(x, y)):
                return False
        # Every kept key of a is in b, so equal counts mean equal key sets.
        return kept == len(b) - len(_VOLATILE.intersection(b))
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if not (x is y or x == y or structurally_equal(x, y)):
                return False
        return True
    return a == b
