"""Shared prediction-codec pipeline for the SZ3 / QoZ / HPEZ presets.

Implements the five framework steps of paper §4 around the interpolation
engine: auto-tuning → prediction → linear quantization → entropy coding →
lossless postprocessing, plus the value-range error-bound convention of
§7.1.3 (``e = eps * (max - min)``).
"""
from __future__ import annotations

import numpy as np

from . import autotune, container, interp, lorenzo, metrics
from .autotune import TuneOptions


def rel_to_abs(data: np.ndarray, eps: float) -> float:
    """Value-range-based eps → absolute bound (constant data → tiny e)."""
    r = metrics.value_range(data)
    if r == 0:
        return eps if eps > 0 else 1e-12
    return eps * r


class PredictionCodec:
    """An SZ3-framework codec parameterized by its tuning options."""

    def __init__(self, name: str, opts: TuneOptions) -> None:
        self.name = name
        self.opts = opts

    def compress(
        self,
        data: np.ndarray,
        eps: float,
        mode: str = "rel",
        target: str | None = None,
        fvfi: bool | None = None,
    ) -> bytes:
        """Compress; ``mode="rel"`` is value-range-based (paper default),
        ``"abs"`` takes ``eps`` as the absolute bound directly."""
        data = np.asarray(data)
        e = rel_to_abs(data, eps) if mode == "rel" else float(eps)
        opts = self.opts
        if target is not None or fvfi is not None:
            opts = TuneOptions(**{**opts.__dict__})
            if target is not None:
                opts.target = target
            if fvfi is not None:
                opts.fvfi = fvfi
        result = autotune.tune(data, e, opts)
        inner = None
        if result.use_lorenzo:
            try:
                inner = lorenzo.compress(data, e)
                kind = "lorenzo"
            except OverflowError:
                # Lorenzo won on the samples, but the whole input overflows
                # its lattice: interpolate, with the §6.6 map tuning skipped.
                if opts.blockwise:
                    autotune.add_block_map(data, e, opts, result.cfg)
        if inner is None:
            inner, _ = interp.compress(data, e, result.cfg)
            kind = "interp"
        meta = {"algo": self.name, "kind": kind, "e": e}
        return container.pack(
            [("meta", container.json_section(meta)), ("inner", inner)]
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        sec = container.unpack(blob)
        meta = container.from_json(sec["meta"])
        if meta["kind"] == "lorenzo":
            return lorenzo.decompress(sec["inner"])
        return interp.decompress(sec["inner"])
