"""Shared binary file helpers: magic line + JSON header + raw array payload.

Every binary artifact in this package (model checkpoints, training
checkpoints, fitted latents, volume payloads) uses the same envelope:

    <MAGIC> <version>\n          ascii magic word and integer version
    <header JSON>\n              one line, utf-8
    <payload>                    concatenated arrays, little-endian

The header carries an ``arrays`` list of [name, shape, dtype] entries in
payload order, so readers can validate byte counts before touching the
payload. A malformed entry, or a header key or array a reader needs and
does not find (see ``require``), is a ``PayloadError``, and so is a
stored config whose keys are not its dataclass's fields (see
``config_from_dict``). Round-trips are bit-exact: arrays are written as
little-endian raw bytes and read back with the recorded dtype and shape.

JSON artifacts share two helpers as well: configs serialise and hash
through ``config_dict``/``config_hash``, and records are written through
``write_json_atomic`` so a reader never sees a half-written file.

Everything the package hashes goes through one function, ``digest``:
config hashes, model checksums, the code fingerprint and the numerics
digest that keys the desk-scale cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import MISSING, asdict, fields
from typing import BinaryIO

import numpy as np

from .errors import FormatVersionError, PayloadError

_LE_DTYPES = {"float64": "<f8", "float32": "<f4", "uint8": "|u1", "int64": "<i8"}


def _le_dtype(name: str) -> np.dtype:
    if name not in _LE_DTYPES:
        raise PayloadError(f"unsupported array dtype {name!r} in header")
    return np.dtype(_LE_DTYPES[name])


def array_entries(arrays: dict[str, np.ndarray]) -> list[list]:
    """Header ``arrays`` entries ([name, shape, dtype]) in dict order."""
    out = []
    for name, arr in arrays.items():
        if arr.dtype.name not in _LE_DTYPES:
            raise PayloadError(f"array {name!r} has unsupported dtype {arr.dtype.name}")
        out.append([name, list(arr.shape), arr.dtype.name])
    return out


def write_blob(f: BinaryIO, magic: str, version: int, header: dict,
               arrays: dict[str, np.ndarray]) -> None:
    """Write the envelope. ``header`` must not already contain 'arrays'."""
    full = dict(header)
    full["arrays"] = array_entries(arrays)
    f.write(f"{magic} {version}\n".encode("ascii"))
    f.write(json.dumps(full, sort_keys=True).encode("utf-8"))
    f.write(b"\n")
    for name, _, dtype_name in full["arrays"]:
        f.write(np.ascontiguousarray(arrays[name], dtype=_le_dtype(dtype_name)).tobytes())


def read_blob(f: BinaryIO, magic: str, max_version: int) -> tuple[int, dict, dict[str, np.ndarray]]:
    """Read and validate an envelope; returns (version, header, arrays)."""
    first = f.readline().decode("ascii", errors="replace").rstrip("\n")
    parts = first.split(" ")
    if len(parts) != 2 or parts[0] != magic or not parts[1].isdigit():
        raise PayloadError(f"bad magic line {first!r}, expected {magic!r} + version")
    version = int(parts[1])
    if version > max_version:
        raise FormatVersionError(f"{magic} version {version} is newer than supported {max_version}")
    try:
        header = json.loads(f.readline().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise PayloadError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise PayloadError("header missing 'arrays' table")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[1], list) and isinstance(entry[2], str)
                and all(type(n) is int and n >= 0 for n in entry[1])):
            raise PayloadError(f"bad 'arrays' entry {entry!r}, expected [name, shape, dtype]")
        name, shape, dtype_name = entry
        dt = _le_dtype(dtype_name)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = f.read(count * dt.itemsize)
        if len(raw) != count * dt.itemsize:
            raise PayloadError(f"array {name!r}: payload truncated "
                               f"({len(raw)} of {count * dt.itemsize} bytes)")
        arrays[name] = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    trailing = f.read(1)
    if trailing:
        raise PayloadError("trailing bytes after declared payload")
    return version, header, arrays


def require(mapping: dict, keys, what: str) -> None:
    """Raise ``PayloadError`` naming the first of ``keys`` missing from ``mapping``,
    an envelope's header or arrays or a JSON object (``what`` says which file
    part it is); a ``mapping`` that is not a dict is one too."""
    if not isinstance(mapping, dict):
        raise PayloadError(f"{what} must be a JSON object, got {type(mapping).__name__}")
    for key in keys:
        if key not in mapping:
            raise PayloadError(f"{what} missing {key!r}")


def expect(value, kind: type, what: str) -> None:
    """Raise ``PayloadError`` unless ``value`` is a ``kind``; a JSON boolean is no int."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise PayloadError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def config_from_dict(cls, d, what: str, **nested):
    """``cls(**d)`` for a stored dataclass config ``d``, checked first.

    ``PayloadError`` names the keys of ``d`` that are not fields of ``cls``
    and the fields without a default that ``d`` lacks; a value the
    constructor cannot take is one too. ``nested`` maps a field to the
    reader of its own stored dict.
    """
    if not isinstance(d, dict):
        raise PayloadError(f"{what} must be a JSON object, got {type(d).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    missing = sorted(name for name, f in known.items() if name not in d
                     and f.default is MISSING and f.default_factory is MISSING)
    if unknown or missing:
        raise PayloadError(f"{what}: unknown keys {unknown}, missing keys {missing}")
    try:
        return cls(**{k: nested[k](v) if k in nested else v for k, v in d.items()})
    except TypeError as exc:
        raise PayloadError(f"{what}: {exc}") from exc


def _json_fields(pairs) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def config_dict(cfg) -> dict:
    """A (nested) dataclass config as plain JSON types; tuple fields become lists."""
    return asdict(cfg, dict_factory=_json_fields)


def digest(*parts) -> str:
    """SHA-256 hex digest of ``parts`` in order. A ``str`` enters as its UTF-8
    bytes, anything else as the little-endian bytes of ``np.asarray(part)``,
    so an array hashes alike on either byte order but not at another dtype."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode("utf-8"))
        else:
            arr = np.asarray(part)
            h.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def config_hash(d: dict, chars: int = 64) -> str:
    """Leading ``chars`` hex digits of the ``digest`` of ``d`` as sorted-key JSON."""
    return digest(json.dumps(d, sort_keys=True))[:chars]


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path + ".tmp"``, then rename it into place."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def write_json_atomic(path: str, obj) -> None:
    """Write ``obj`` as indented sorted-key JSON and a final newline, renamed
    into place when complete."""
    write_text_atomic(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")
