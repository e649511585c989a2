"""Dynamic-order Lorenzo predictor codec (paper §6.5, design of [55]).

Implemented through the exact algebraic equivalence: with linear
quantization and no index saturation, Lorenzo prediction on
*reconstructed* values is identical to

    u = round(x / 2e)           (integer lattice, |x - 2e*u| <= e)
    codes = Δ u                  (n-d finite difference, once per axis)

because the reconstructed neighbourhood is exactly ``2e * u`` and the
quantized residual telescopes to the difference of the ``u`` field. The
second-order Lorenzo of [55] applies the difference operator twice.
This vectorizes both directions (diff / cumsum), which is how the codec
stays competitive inside the speed tables.

The dynamic order (1 vs 2) is chosen by actual encoded size. A value
halfway between two lattice points can miss both by an ulp in float64;
those few points are stored exactly in a patch section.
"""
from __future__ import annotations

import numpy as np

from . import codes as codes_mod
from . import container

_MAX_INDEX = float(2**60)


def _forward(u: np.ndarray, order: int) -> np.ndarray:
    d = u
    for _ in range(order):
        for ax in range(u.ndim):
            d = np.diff(d, axis=ax, prepend=0)
    return d


def _inverse(d: np.ndarray, order: int) -> np.ndarray:
    u = d
    for _ in range(order):
        for ax in range(u.ndim - 1, -1, -1):
            u = np.cumsum(u, axis=ax)
    return u


def compress(data: np.ndarray, e: float) -> bytes:
    """Compress under absolute bound ``e``; raises ``OverflowError`` if the
    quantization lattice would overflow (caller falls back to
    interpolation)."""
    if e <= 0:
        raise ValueError("error bound must be positive")
    a = np.asarray(data, dtype=np.float64)
    scaled = a / (2.0 * e)
    if not np.isfinite(scaled).all() or np.abs(scaled).max(initial=0.0) > _MAX_INDEX:
        raise OverflowError("error bound too small for Lorenzo lattice")
    u = np.rint(scaled).astype(np.int64)
    # Floating rounding of 2e*u can overshoot the bound by ~1 ulp; nudge
    # the affected lattice indices so the guarantee is exact in float64.
    recon = 2.0 * e * u
    over = (a - recon) > e
    if over.any():
        u[over] += 1
    under = (a - 2.0 * e * u) < -e
    if under.any():
        u[under] -= 1
    # A value halfway between two lattice points can miss both by an ulp
    # in float64; such points are stored exactly and patched in on decode.
    miss = np.flatnonzero(np.abs(a - 2.0 * e * u) > e)
    best: tuple[int, bytes] | None = None
    for order in (1, 2):
        blob = codes_mod.encode(_forward(u, order).ravel(), center=0)
        if best is None or len(blob) < len(best[1]):
            best = (order, blob)
    assert best is not None
    order, blob = best
    meta = {
        "shape": list(a.shape),
        "dtype": np.asarray(data).dtype.str,
        "e": e,
        "order": order,
    }
    sections = [("meta", container.json_section(meta)), ("codes", blob)]
    if miss.size:
        sections.append(("patch_at", container.array_section(miss.astype(np.int64))))
        sections.append(("patch_val", container.array_section(a.ravel()[miss])))
    return container.pack(sections)


def decompress(payload: bytes) -> np.ndarray:
    sec = container.unpack(payload)
    meta = container.from_json(sec["meta"])
    shape = tuple(meta["shape"])
    d = codes_mod.decode(sec["codes"]).reshape(shape)
    u = _inverse(d, int(meta["order"]))
    out = 2.0 * float(meta["e"]) * u.astype(np.float64)
    if "patch_at" in sec:
        at = container.to_array(sec["patch_at"])
        vals = container.to_array(sec["patch_val"])
        if at.shape != vals.shape or not ((0 <= at) & (at < out.size)).all():
            raise ValueError("corrupt Lorenzo patch section")
        out.ravel()[at] = vals
    return out
