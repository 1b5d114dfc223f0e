"""Shared artifact-file plumbing: canonical JSON, atomic writes, reads, hashing."""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from pathlib import Path


class SchemaError(ValueError):
    """An artifact file does not match its documented schema."""


def canonical_json_bytes(payload) -> bytes:
    """Serialize ``payload`` compactly, UTF-8, with a trailing newline.

    Callers build payloads in schema field order; for identical payloads
    the result is byte-identical, so artifacts are diff-able and hashable.
    """
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
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


def parse_json(text: str):
    """``json.loads`` that raises every parse failure as ValueError(reason).

    Besides malformed JSON this covers an integer literal longer than the
    interpreter's digit limit and nesting too deep for the decoder, which
    ``json.loads`` raises as a bare ValueError and a RecursionError.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(exc.msg) from exc
    except RecursionError as exc:
        raise ValueError("nesting too deep") from exc


def read_json(path):
    """Parse a JSON artifact file as UTF-8.

    Undecodable bytes and malformed JSON raise SchemaError naming the path.
    """
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc.reason}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
