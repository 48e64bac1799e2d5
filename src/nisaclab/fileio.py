"""Whole-file reads and writes: a file is read in one pass, with its header
checked, and written so it is either the complete new content or untouched."""

from __future__ import annotations

import contextlib
import os
import struct

from .errors import BadMagicError, FileFormatError, FormatVersionError, TruncatedFileError


def read_file(path, header: struct.Struct, magic: bytes, version: int, what: str, payload_size):
    """Read a whole `what` file; returns the header fields after its magic and
    version, and a view of the payload, once those match and the payload holds
    exactly the payload_size(*fields) bytes the header promises.  So a corrupt
    count fails here before it can size an allocation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header.size:
        raise TruncatedFileError(f"{what} file ended inside the header")
    found_magic, found_version, *fields = header.unpack_from(raw)
    if found_magic != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {found_magic!r}")
    if found_version != version:
        raise FormatVersionError(f"unsupported {what} format version {found_version}")
    payload = memoryview(raw)[header.size:]
    promised = payload_size(*fields)
    if len(payload) < promised:
        raise TruncatedFileError(f"{what} payload holds {len(payload)} bytes, header promises {promised}")
    if len(payload) > promised:
        raise FileFormatError(f"trailing bytes after {what} payload")
    return fields, payload


@contextlib.contextmanager
def staged_path(path):
    """Yield a fresh temporary path beside `path` to write to.

    On a clean exit the temporary file replaces `path` in one rename; on an
    error it is removed, so `path` is never left half-written or, if it did
    not exist, created.  The temporary file is created at entry, so a missing
    or unwritable directory fails before anything is written.  A symlink's
    target is replaced, not the link; an existing file that is not a regular
    file (a pipe or a device such as /dev/stdout) cannot be replaced and is
    yielded to be written in place.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        yield path
        return
    path = os.path.realpath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
