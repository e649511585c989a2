"""Bulk coder for quantization-code streams (paper §4 steps 4-5).

The paper pipes quantization codes through Huffman then Zstd. A pure-
Python sequential Huffman *decode* of 10^6-10^8 symbols would dominate
every speed table, so bulk streams use an equivalent-entropy scheme that
is fully vectorized both ways:

* recenter codes around the quantizer radius (small signed ints),
* zigzag-map to unsigned,
* split into little-endian byte planes (plane 0 carries nearly all the
  entropy; higher planes are almost constant zero),
* DEFLATE each plane (DEFLATE's literal stage *is* Huffman coding, with
  LZ77 on top standing in for Zstd's match stage).

The arithmetic runs in int32 whenever the stream allows (always, for
quantizer codes) and falls back to int64; planes are byte columns of
the zigzagged array, so the blob does not depend on the width. Decoding
merges the planes into the narrowest unsigned type that holds them and
checks the framing: a truncated or corrupt blob raises ``ValueError``.

Streams below ``HUFFMAN_CUTOFF`` symbols use the real from-scratch
canonical Huffman codec + DEFLATE, exercising the paper's exact pipeline.
A ratio-parity test in ``tests/test_codes.py`` pins the two schemes
within a few percent of each other.
"""
from __future__ import annotations

import struct

import numpy as np

from . import huffman, lossless

_MAGIC_BP = b"BP01"
_MAGIC_HF = b"CH01"

HUFFMAN_CUTOFF = 4096


def _zigzag(v: np.ndarray) -> np.ndarray:
    """Signed -> unsigned ints of the same width, in place:
    0, -1, 1, -2 -> 0, 1, 2, 3."""
    sign = v >> v.dtype.type(8 * v.dtype.itemsize - 1)
    z = v.view(f"u{v.dtype.itemsize}")
    z <<= z.dtype.type(1)
    z ^= sign.view(z.dtype)
    return z


def _unzigzag(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`; consumes ``z``."""
    one = z.dtype.type(1)
    half = z >> one
    z &= one
    sign = z.view(f"i{z.dtype.itemsize}")
    np.negative(sign, out=sign)
    half ^= z
    return half.view(sign.dtype)


def encode(codes: np.ndarray, center: int = 0) -> bytes:
    """Encode an integer code stream; ``center`` is subtracted first."""
    codes = np.asarray(codes).ravel()
    n = codes.size
    if n and n <= HUFFMAN_CUTOFF:
        body = lossless.compress(huffman.encode(codes.astype(np.int64) - center))
        return _MAGIC_HF + struct.pack("<Qq", n, center) + body
    nbytes = 1
    calc = np.int64
    if n:
        lo, hi = int(codes.min()), int(codes.max())
        zmax = max(2 * (hi - center), 2 * (center - lo) - 1)
        while zmax >> (8 * nbytes):
            nbytes += 1
        # int32 arithmetic whenever the stream and its centre fit (the
        # quantizer's codes always do); int64 otherwise. Same planes.
        if max(-lo, hi, abs(center), zmax >> 1) < 2**31:
            calc = np.int32
    v = codes.astype(calc)
    v -= calc(center)
    z = _zigzag(v)
    cols = z.astype(z.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    cols = cols.reshape(n, z.dtype.itemsize)
    out = [_MAGIC_BP, struct.pack("<QqB", n, center, nbytes)]
    for b in range(nbytes):
        blob = lossless.compress(np.ascontiguousarray(cols[:, b]))
        out.append(struct.pack("<Q", len(blob)))
        out.append(blob)
    return b"".join(out)


def decode(blob: bytes) -> np.ndarray:
    """Decode back to int64 codes (center re-added). Raises ``ValueError``
    on a truncated or corrupt blob."""
    magic = bytes(blob[:4])
    if magic == _MAGIC_HF:
        if len(blob) < 20:
            raise ValueError("truncated code-stream header")
        n, center = struct.unpack_from("<Qq", blob, 4)
        syms = huffman.decode(lossless.decompress(blob[4 + 16 :]))
        if syms.size != n:
            raise ValueError("Huffman code stream length mismatch")
        return syms + center
    if magic != _MAGIC_BP:
        raise ValueError("unknown code-stream blob")
    if len(blob) < 21:
        raise ValueError("truncated code-stream header")
    n, center, nbytes = struct.unpack_from("<QqB", blob, 4)
    if not 1 <= nbytes <= 8:
        raise ValueError(f"code stream declares {nbytes} byte planes (1 to 8)")
    off = 4 + 17
    planes = []
    for b in range(nbytes):
        if off + 8 > len(blob):
            raise ValueError("truncated byte-plane header")
        (ln,) = struct.unpack_from("<Q", blob, off)
        off += 8
        if ln > len(blob) - off:
            raise ValueError("byte plane runs past the end of the blob")
        plane = lossless.decompress(blob[off : off + ln])
        off += ln
        if len(plane) != n:
            raise ValueError(f"byte plane {b} holds {len(plane)} bytes, expected {n}")
        planes.append(plane)
    if off != len(blob):
        raise ValueError("trailing bytes after the last byte plane")
    # Merge the planes into the narrowest unsigned type that holds them.
    width = 1 << (nbytes - 1).bit_length()
    cols = np.zeros((n, width), dtype=np.uint8)
    for b, plane in enumerate(planes):
        cols[:, b] = np.frombuffer(plane, dtype=np.uint8)
    out = _unzigzag(cols.view(f"<u{width}").reshape(n)).astype(np.int64)
    out += center
    return out
