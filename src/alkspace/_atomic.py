"""Write-then-rename, so that a reader never sees a partial file."""

from __future__ import annotations

import os
from typing import Callable


def write_atomic(path: str, content: str | bytes | Callable[[str], object]) -> object:
    """Write ``content`` (text, bytes, or a function that writes the path it
    is given) to a new file beside ``path`` and rename that into place;
    returns what the function returns. A file that already holds exactly
    the given text or bytes is left untouched. The new file gets mode 0o666
    less the umask, and is removed if the write fails."""
    data = content.encode() if isinstance(content, str) else content
    if isinstance(data, bytes) and os.path.isfile(path):
        with open(path, "rb") as fh:
            if fh.read() == data:
                return None
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    result = None
    try:
        if callable(data):
            os.close(fd)
            result = data(tmp)
        else:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result
