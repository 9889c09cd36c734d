"""Store-URI parsing — one scheme, parsed in one place.

Every surface that accepts a store location (``--store``,
``REPRO_STORE_DIR``, ``repro serve``) takes the same URI grammar:

* ``sqlite:PATH``            — single sqlite index + blob tree
* ``PATH``                   — bare paths mean ``sqlite:PATH``

Any other ``scheme:`` prefix (``http://`` included) is rejected rather
than read as a relative directory name.  :func:`parse_store_uri`
returns the :class:`~repro.store.backends.SqliteBackend`; callers wrap
it in an :class:`~repro.store.artifacts.ArtifactStore` (or use
:func:`~repro.store.artifacts.open_store`, which accepts URIs
directly).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import ValidationError
from repro.store.backends import SqliteBackend

__all__ = ["parse_store_uri"]

#: A leading URI scheme (RFC 3986 syntax, at least two characters so a
#: one-letter drive prefix such as ``C:`` stays a path).
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]+:")


def parse_store_uri(target) -> SqliteBackend:
    """The :class:`SqliteBackend` described by ``target``.

    ``target`` may already be a backend (returned as-is), a
    :class:`~pathlib.Path` (always a local sqlite store; never
    re-parsed, so odd filenames round-trip), or a URI string per the
    module docstring.  Malformed URIs and unknown schemes raise
    :class:`~repro.errors.ValidationError`.
    """
    if isinstance(target, SqliteBackend):
        return target
    if isinstance(target, Path):
        return SqliteBackend(target)
    text = str(target).strip()
    if not text:
        raise ValidationError(
            f"store URI must be non-empty, got {target!r}"
        )
    if text.startswith("sqlite:"):
        path = text[len("sqlite:"):]
        if not path:
            raise ValidationError(
                f"store URI {text!r} is missing a path"
            )
        return SqliteBackend(Path(path))
    if _SCHEME.match(text):
        raise ValidationError(
            f"store URI {text!r} has an unknown scheme; accepted: "
            f"sqlite:PATH or a bare path"
        )
    return SqliteBackend(Path(text))
