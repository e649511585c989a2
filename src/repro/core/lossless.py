"""Lossless back-end (paper §4 step 5: Zstd).

``zstandard`` is not installed in this offline container, so DEFLATE
(stdlib ``zlib``) stands in — same LZ77+entropy family, a few percent
ratio difference, no effect on compressor ordering (see DESIGN.md §2).
"""
from __future__ import annotations

import zlib

LEVEL = 6


def compress(data: bytes, level: int = LEVEL) -> bytes:
    return zlib.compress(data, level)


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`; ``ValueError`` on a corrupt stream."""
    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        raise ValueError(f"corrupt lossless stream: {exc}") from exc
