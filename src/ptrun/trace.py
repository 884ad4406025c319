"""Versioned JSONL run traces: one record object per line.

The header embeds the task, metadata and full run configuration, and names
the tool environment: its fault scripts and, by digest, its knowledge base,
whose articles live once per directory in a ``kb/<digest>.json`` side file
next to the trace. A trace and its ``kb/`` directory together are enough to
recompute every deterministic stage.

A trace file is written once, when its run ends: the writer opens the path
without truncating it, keeps the encoded lines, and at close writes them in
one write and cuts the file there. Until then a file that held something
starts with UNFINISHED_LINE, so a process killed mid-run leaves a file that
no reader takes for a trace: an existing one marked unfinished, or an empty
file at a new path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
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
# The first line of a trace file while its run writes it: no JSON, so no
# earlier content behind it reads as the run's trace.
UNFINISHED_LINE = "unfinished: this trace is written when its run ends\n"


class TraceSchemaError(ValueError):
    pass


def reject_constant(name: str):
    """A ``parse_constant`` for strict JSON: refuses NaN and Infinity."""
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} overflows to {value}")
    return value


def load_json(path: str | Path):
    """The JSON input file at the path, read strictly: NaN, Infinity and numbers
    that overflow to either infinity, such as 1e400, are refused."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject_constant, parse_float=_finite_float)


# Decodes as json.loads does, but refuses NaN and Infinity. One decoder serves
# every trace line and every profile search.
STRICT_DECODER = json.JSONDecoder(parse_constant=reject_constant)


def json_encoder(**options):
    """A function that encodes as ``json.dumps(obj, **options)`` does, with its
    encoder built once instead of on every call. It does not check for
    circular references: CPython's C encoder keeps the markers of an encode
    that fails partway, and a shared encoder would then refuse any later
    object at such an id. So a cyclic value raises RecursionError, where
    ``json.dumps`` raises ValueError."""
    spec = json.JSONEncoder(check_circular=False, **options)
    if c_make_encoder is None:  # an interpreter without _json
        return spec.encode
    encode = c_make_encoder(
        None, spec.default,
        encode_basestring_ascii if spec.ensure_ascii else encode_basestring,
        None, spec.key_separator, spec.item_separator, spec.sort_keys, spec.skipkeys,
        spec.allow_nan)
    return lambda obj: "".join(encode(obj, 0))


# Trace lines are strict JSON: a NaN or an infinity is a ValueError.
_encode_line = json_encoder(allow_nan=False)
_encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                     allow_nan=False).encode


def canonical_json(obj) -> str:
    return _encode_canonical(obj)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class TraceWriter:
    """Collects records in memory and, when given a path, writes them to it
    as JSONL lines when closed."""

    def __init__(self, path: str | Path | None = None):
        self.path = str(path) if path else None
        self.records: list[dict] = []
        self._lines: list[str] = []
        self._fh, self._held = _open_unfinished(self.path) if self.path else (None, 0)

    def write(self, record: dict) -> None:
        """Keep the record and, with a path, its JSON line for close().

        A NaN or an infinity in the record is a ValueError and a value that
        cannot be serialized a TypeError, as from ``json.dumps``; a cyclic
        value, which only a library caller can pass, is a RecursionError.
        A failed write keeps the record but no line, and leaves the encoder
        ready for the next one."""
        self.records.append(record)
        if self._fh:
            self._lines.append(_encode_line(record) + "\n")

    def close(self) -> None:
        """Write the lines in one write, cut off whatever the file held past
        them, and close it."""
        if self._fh:
            fh, self._fh = self._fh, None
            try:
                data = "".join(self._lines).encode("utf-8")
                fh.write(data)
                if self._held > len(data):
                    fh.truncate()
            finally:
                fh.close()


def _open_unfinished(path: str):
    """The file at the path, opened without truncating it (on ext4 that
    costs several times writing over it) and, when it holds something,
    marked unfinished at its start; with the bytes it then holds. Pipes
    and devices hold none."""
    fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb")
    try:
        held = os.fstat(fh.fileno()).st_size
        if held:
            held = max(held, fh.write(UNFINISHED_LINE.encode("ascii")))
            fh.seek(0)  # flushes the mark first
    except BaseException:
        fh.close()
        raise
    return fh, held


def read_trace(source: str | Path | list[dict]) -> list[dict]:
    """Records of a trace file (or an in-memory record list), header checked.

    Raises TraceSchemaError for a line that is not a strict JSON object
    (``NaN`` and ``Infinity`` are refused) or nests JSON too deeply to
    decode, naming its 1-based line number, for a record without a ``type``,
    naming its line or its 0-based index in the list, for a file whose run
    has not written it (UNFINISHED_LINE) and for a missing or unsupported
    header.
    """
    if isinstance(source, list):
        records = source
        for index, record in enumerate(records):
            if "type" not in record:
                raise TraceSchemaError(f"record {index} has no type")
    else:
        records = []
        with open(source, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = STRICT_DECODER.decode(line)
                except ValueError as exc:
                    if number == 1 and line == UNFINISHED_LINE:
                        raise TraceSchemaError(
                            "trace is unfinished: its run was killed or is still running") from None
                    raise TraceSchemaError(f"line {number} is not valid JSON: {exc}") from None
                except RecursionError:
                    raise TraceSchemaError(f"line {number} nests JSON too deeply") from None
                if not isinstance(record, dict):
                    raise TraceSchemaError(f"line {number} is not a JSON object")
                if "type" not in record:
                    raise TraceSchemaError(f"line {number} has no type")
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
