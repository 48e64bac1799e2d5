"""Whole-file writes: a file is either the complete new content or untouched."""

from __future__ import annotations

import contextlib
import os
import secrets


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
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
