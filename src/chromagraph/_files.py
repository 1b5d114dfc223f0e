"""Shared artifact-file plumbing: canonical JSON, atomic writes, reads, hashing,
and the collector pause around bulk passes."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import re
import secrets
from pathlib import Path


class SchemaError(ValueError):
    """An artifact file does not match its documented schema."""


def gc_paused(fn):
    """Decorate a pass over a whole corpus, graph or file to run with the cyclic GC paused.

    Such a pass allocates many container objects that all stay alive, so
    every collection it would trigger walks live objects and frees
    nothing. The collector is process-wide. A pause that finds it on
    turns it off, and on again when the pass returns or raises. A pause
    that finds it off (inside another pause, this thread's or another's,
    or under a caller that turned it off) touches nothing: had it turned
    the collector off as well, another thread's pause ending in between
    could leave it off for good.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def canonical_json_bytes(payload) -> bytes:
    """Serialize ``payload`` compactly, UTF-8, with a trailing newline.

    Callers build payloads in schema field order; for identical payloads
    the result is byte-identical, so artifacts are diff-able and hashable.
    A NaN or infinite float raises ValueError: RFC 8259 JSON has neither.
    The circular-reference check is off: every payload is built inside
    the package and none refers to itself, and on SMS the check's
    bookkeeping per list and dict costs about 5% of the time the vector
    lines of ``embed`` and ``project`` take to dump, and 3% of a coloring's.
    """
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"), allow_nan=False,
                      check_circular=False)
    return text.encode("utf-8") + b"\n"


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` via a same-directory temp file and rename.

    A partially written file is never left behind under the final name.
    The file gets the mode a plain ``open(path, "wb")`` gives, so it
    follows the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# A \uXXXX escape of a UTF-16 surrogate, D800-DFFF: the only way JSON
# text read as UTF-8 can decode to a string UTF-8 cannot encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str):
    """``json.loads`` that raises every parse failure as ValueError(reason).

    Besides malformed JSON this covers an integer literal longer than the
    interpreter's digit limit and nesting too deep for the decoder, which
    ``json.loads`` raises as a bare ValueError and a RecursionError, and
    a string holding an unpaired surrogate escape such as ``"\\ud800"``,
    which loads but cannot be written as UTF-8. An escaped pair decodes
    to one character and loads.
    """
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):  # a pair decodes to one encodable character
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except json.JSONDecodeError as exc:
        raise ValueError(exc.msg) from exc
    except UnicodeEncodeError as exc:
        raise ValueError("unpaired surrogate escape") from exc
    except RecursionError as exc:
        raise ValueError("nesting too deep") from exc


def check_version(payload, expected: int, name: str, kind: str) -> None:
    """Raise SchemaError unless ``payload`` is a JSON object of schema version ``expected``.

    ``true`` and ``1.0`` equal 1 in Python, so the version's type is checked too.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"{name}: {kind} file must hold a JSON object")
    version = payload.get("version")
    if type(version) is not int or version != expected:
        raise SchemaError(f"{name}: unsupported {kind} schema version {version!r}")


def parse_json_bytes(data: bytes, name):
    """Parse JSON artifact bytes as UTF-8.

    Undecodable bytes and malformed JSON raise SchemaError naming ``name``.
    """
    try:
        return parse_json(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name}: not valid UTF-8: {exc.reason}") from exc
    except ValueError as exc:
        raise SchemaError(f"{name}: not valid JSON: {exc}") from exc


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
