"""Bulk quantization-code coder tests (byte-plane + Huffman paths)."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codes


@pytest.mark.parametrize("center", [0, 32768, -5])
@pytest.mark.parametrize("n", [0, 1, 10, 5000, 70000])
def test_roundtrip(center, n):
    rng = np.random.default_rng(n + 1)
    arr = rng.integers(center - 100, center + 100, n)
    out = codes.decode(codes.encode(arr, center=center))
    np.testing.assert_array_equal(out, arr)


def test_small_stream_uses_huffman():
    arr = np.arange(100)
    blob = codes.encode(arr)
    assert blob[:4] == b"CH01"


def test_large_stream_uses_byteplanes():
    arr = np.zeros(100000, dtype=np.int64)
    blob = codes.encode(arr)
    assert blob[:4] == b"BP01"


def test_concentrated_codes_compress_well():
    rng = np.random.default_rng(0)
    arr = 32768 + np.rint(rng.standard_normal(200000) * 1.5).astype(np.int64)
    blob = codes.encode(arr, center=32768)
    assert len(blob) * 8 / arr.size < 3.5  # ~2.8 bits marginal entropy


def test_ratio_parity_huffman_vs_byteplane():
    """The byte-plane path stands in for Huffman+Zstd on bulk streams
    (DESIGN.md §2); their sizes must stay within ~25 % on SZ-style
    quantization codes."""
    rng = np.random.default_rng(1)
    sym = np.rint(rng.standard_normal(40000) * 2.0).astype(np.int64)
    from repro.core import huffman, lossless

    hf = len(lossless.compress(huffman.encode(sym)))
    bp = len(codes.encode(sym, center=0))
    assert bp < hf * 1.25


def test_negative_values():
    arr = np.array([-(2**40), -1, 0, 1, 2**40])
    out = codes.decode(codes.encode(arr, center=0))
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**50), max_value=2**50),
        min_size=0,
        max_size=200,
    )
)
def test_roundtrip_hypothesis(data):
    arr = np.array(data, dtype=np.int64)
    out = codes.decode(codes.encode(arr, center=0))
    np.testing.assert_array_equal(out, arr)


def test_rejects_garbage():
    with pytest.raises(ValueError):
        codes.decode(b"XXXXrest")


def _bp_blob(n=5000):
    rng = np.random.default_rng(3)
    return codes.encode(rng.integers(-300, 300, n), center=0)


def test_byte_plane_paths_agree_across_widths():
    """int32 and int64 inputs give the same planes, so the same blob."""
    rng = np.random.default_rng(4)
    arr = 32768 + rng.integers(-3000, 3000, 20000)
    assert codes.encode(arr.astype(np.int32), 32768) == codes.encode(
        arr.astype(np.int64), 32768
    )


@pytest.mark.parametrize("span", [2**7, 2**15, 2**23, 2**31, 2**40, 2**62])
def test_byte_plane_roundtrip_every_width(span):
    rng = np.random.default_rng(5)
    arr = rng.integers(-span, span, 6000)
    arr[:2] = (-span, span - 1)
    np.testing.assert_array_equal(codes.decode(codes.encode(arr)), arr)


def test_truncated_blob_raises():
    blob = _bp_blob()
    for cut in (3, 10, 21, 25, 29, len(blob) // 2, len(blob) - 1):
        with pytest.raises(ValueError):
            codes.decode(blob[:cut])
    hf = codes.encode(np.arange(100))
    for cut in (10, 19, len(hf) - 1):
        with pytest.raises(ValueError):
            codes.decode(hf[:cut])


def test_short_plane_raises():
    """A plane that decodes to fewer than n bytes used to broadcast."""
    from repro.core import lossless

    plane = lossless.compress(b"\x00")
    blob = b"BP01" + struct.pack("<QqB", 5000, 0, 1)
    blob += struct.pack("<Q", len(plane)) + plane
    with pytest.raises(ValueError, match="byte plane 0"):
        codes.decode(blob)


@pytest.mark.parametrize("nbytes", [0, 9, 255])
def test_bad_plane_count_raises(nbytes):
    blob = bytearray(_bp_blob())
    blob[4 + 16] = nbytes
    with pytest.raises(ValueError, match="byte planes"):
        codes.decode(bytes(blob))


def test_corrupt_plane_raises():
    blob = bytearray(_bp_blob())
    blob[4 + 17 + 8 + 2] ^= 0xFF  # inside plane 0's DEFLATE stream
    with pytest.raises(ValueError):
        codes.decode(bytes(blob))


def test_trailing_bytes_raise():
    with pytest.raises(ValueError, match="trailing"):
        codes.decode(_bp_blob() + b"\x00")
