"""In-memory span tracer for the layered benchmark.

The tracer wraps the public functions of each ``repro`` module at run
time, so the program under test is not edited. A span is
``(name, start, end, parent, rep, size)``: ``parent`` is the index of
the enclosing span (or -1), ``rep`` the operation id the span belongs to
and ``size`` a work count taken at the boundary (bytes or symbols).
Spans are recorded only while an operation is open (``tracer.rep`` is
set), so set-up and result checking leave no spans.

Per-layer metrics are derived from the spans afterwards. A span's self
time is its duration minus the durations of its direct children;
:func:`check_spans` verifies that the children of every span lie inside
it and do not overlap, so self time plus children equals the span.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np


def _first_arg_nbytes(args: tuple, kwargs: dict, result: Any) -> int:
    return int(np.asarray(args[0]).nbytes)


def _symbols_in(args: tuple, kwargs: dict, result: Any) -> int:
    return int(np.asarray(args[0]).size)


def _symbols_out(args: tuple, kwargs: dict, result: Any) -> int:
    return int(np.asarray(result).size)


def _bytes_pair(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return len(args[0]), len(result)


def targets(repro: dict[str, Any]) -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, size function) for every layer
    boundary. ``repro`` maps short names to the imported modules."""
    q = repro["quantizer"]
    return [
        (repro["codecs"], "compress", "codecs.compress", None),
        (repro["codecs"], "decompress", "codecs.decompress", None),
        (repro["autotune"], "tune", "autotune.tune", None),
        (repro["autotune"], "tune_global_interp", "autotune.tune_global_interp", None),
        (repro["autotune"], "tune_blocks", "autotune.tune_blocks", None),
        (repro["interp"], "compress", "interp.compress", _first_arg_nbytes),
        (repro["interp"], "decompress", "interp.decompress", None),
        (repro["lorenzo"], "compress", "lorenzo.compress", _first_arg_nbytes),
        (q.QuantEncoder, "quantize", "quantizer.quantize", None),
        (q.QuantDecoder, "dequantize", "quantizer.dequantize", None),
        (repro["codes"], "encode", "codes.encode", _symbols_in),
        (repro["codes"], "decode", "codes.decode", _symbols_out),
        (repro["huffman"], "encode", "huffman.encode", None),
        (repro["huffman"], "decode", "huffman.decode", None),
        (repro["lossless"], "compress", "lossless.compress", _bytes_pair),
        (repro["lossless"], "decompress", "lossless.decompress", None),
        (repro["container"], "pack", "container.pack", None),
        (repro["container"], "unpack", "container.unpack", None),
    ]


class Tracer:
    """Collects spans in memory while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, rep, size]
        self.rep: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.rep, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, size: Any = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = size
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    def record(self, name: str, start: float, end: float, rep: int) -> None:
        """Add a top-level span timed by the benchmark itself."""
        self.spans.append([name, start, end, -1, rep, None])

    # -- wrapping ----------------------------------------------------------
    def install(self, points: list[tuple[Any, str, str, Callable | None]]) -> None:
        for owner, attr, name, size_fn in points:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, size_fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn: Callable, name: str, size_fn: Callable | None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.rep is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            size = None
            try:
                result = fn(*args, **kwargs)
                if size_fn is not None:
                    size = size_fn(args, kwargs, result)
                return result
            finally:
                tracer.close(idx, size)

        return traced


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def _children(spans: list[list[Any]]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def check_spans(spans: list[list[Any]]) -> list[str]:
    """Problems found in the span tree. A span's self time is its
    duration minus the part of it its children cover; it must equal the
    duration minus the children's summed durations, which fails when a
    child lies outside its parent or two children overlap."""
    problems: list[str] = []
    kids = _children(spans)
    for i, (name, t0, t1, _parent, rep, _size) in enumerate(spans):
        if t1 is None or t1 < t0:
            problems.append(f"span {i} ({name}) not closed")
            continue
        if any(spans[k][4] != rep for k in kids[i]):
            problems.append(f"span {i} ({name}) has children of another operation")
        ivs = [(spans[k][1], spans[k][2]) for k in kids[i]]
        self_t = (t1 - t0) - _covered(ivs, t0, t1)
        child_sum = sum(b - a for a, b in ivs)
        if abs(self_t + child_sum - (t1 - t0)) > 1e-9:
            problems.append(
                f"span {i} ({name}): self {self_t} + children {child_sum} != {t1 - t0}"
            )
    return problems


def layer_metrics(spans: list[list[Any]], reps: set[int]) -> dict[str, float]:
    """Per-layer sums over the spans of operations ``reps``, each divided
    by ``len(reps)``, i.e. the mean per operation.

    Codec layers (quantizer, codes, huffman, lossless, container) are
    summed wherever they run, the tuner's probes included. ``interp.walk_s``
    and ``interp.unwalk_s`` count only the top-level walk; the tuner's
    trial walks are ``autotune.crop_test_s``."""
    kids = _children(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = [dur[i] - sum(dur[k] for k in kids[i]) for i in range(len(spans))]

    def under(i: int, ancestor: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    m: dict[str, float] = defaultdict(float)
    for i, (name, _t0, _t1, parent, rep, size) in enumerate(spans):
        if rep not in reps:
            continue
        pname = spans[parent][0] if parent >= 0 else ""
        if name == "codecs.compress":
            m["codecs.compress_s"] += dur[i]
        elif name == "codecs.decompress":
            m["codecs.decompress_s"] += dur[i]
        elif name == "autotune.tune":
            m["autotune.tune_s"] += dur[i]
            m["autotune.self_s"] += self_t[i]
        elif name == "autotune.tune_global_interp":
            m["autotune.global_interp_s"] += dur[i]
        elif name == "autotune.tune_blocks":
            m["autotune.blocks_s"] += dur[i]
        elif name in ("interp.compress", "lorenzo.compress") and under(i, "autotune.tune"):
            key = "crop_test_s" if name == "interp.compress" else "lorenzo_probe_s"
            m["autotune." + key] += dur[i]
            m["autotune.probe_calls"] += 1
            m["autotune.probe_bytes"] += size
        elif name == "interp.compress":
            m["interp.walk_s"] += self_t[i]
        elif name == "interp.decompress":
            m["interp.unwalk_s"] += self_t[i]
        elif name == "quantizer.quantize":
            m["quantizer.quantize_s"] += dur[i]
        elif name == "quantizer.dequantize":
            m["quantizer.dequantize_s"] += dur[i]
        elif name in ("codes.encode", "codes.decode"):
            inner = "lossless.compress" if name == "codes.encode" else "lossless.decompress"
            key = "codes.encode_s" if name == "codes.encode" else "codes.decode_s"
            m[key] += dur[i] - sum(dur[k] for k in kids[i] if spans[k][0] == inner)
            m["codes.symbols"] += size
            if pname == "autotune.tune_global_interp":
                # a §6.2 level probe: its code stream is a trial encode
                m["autotune.probe_calls"] += 1
                m["autotune.probe_bytes"] += size * 4  # int32 codes
        elif name in ("huffman.encode", "huffman.decode"):
            m["huffman.calls"] += 1
        elif name == "lossless.compress":
            m["lossless.compress_s"] += dur[i]
            m["lossless.in_bytes"] += size[0]
            m["lossless.out_bytes"] += size[1]
        elif name == "lossless.decompress":
            m["lossless.decompress_s"] += dur[i]
        elif name == "container.pack":
            m["container.pack_s"] += dur[i]
        elif name == "container.unpack":
            m["container.unpack_s"] += dur[i]
        elif name.startswith(("sparkio.", "store.", "oracle.")):
            m[name + "_s"] += dur[i]
    n = max(len(reps), 1)
    return {k: v / n for k, v in m.items()}
