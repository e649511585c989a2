"""Anchor-based level-wise interpolation engine (paper §5, Fig. 2).

One engine serves SZ3 / QoZ / HPEZ — the presets differ only in the
:class:`EngineConfig` they pass (which features are enabled).

Walk structure
--------------
Anchor points (stride ``S = 2^m`` on every *active* axis, every position
on *frozen* axes, §6.3) are stored losslessly. Then levels ``l = m..1``
with stride ``s = 2^(l-1)`` and per-level error bound
``e_l = e / min(alpha^(l-1), beta)`` (Eq. 15) predict the remaining grid:

* paradigm ``"1d"`` (SZ3/QoZ style, §5.3/Fig. 4a): one pass per active
  axis in ``dim_order``; earlier axes are already refined to stride ``s``.
* paradigm ``"md"`` (HPEZ multi-dimensional, §5.3/Fig. 4b): points are
  grouped by how many of their coordinates are odd multiples of ``s``;
  ``r``-odd points are predicted by the inverse-variance-weighted
  combination (Eq. 9/12) of the 1-D interpolations along their odd axes.

Cubic passes may be split into two phases (same-level interpolation,
§5.4.2): phase 1 predicts targets ``j ≡ 1 (mod 4)`` with the inter-level
stencil, phase 2 predicts ``j ≡ 3 (mod 4)`` with the same-level stencil
(Eqs. 13/14) whose ±2 neighbours are phase-1 outputs.

Neighbour indices that fall outside the array are mirrored about the
target and, failing that, clamped to an even (always-known) index — this
keeps every read *parity-safe*: the decompressor replays the identical
walk on a NaN-initialized array and never reads an unwritten point.

Stencil kernel: along a pass axis the targets form an arithmetic
progression (step 2, or 4 in a same-level split, in stride units). The
*interior* targets, whose whole stencil lies inside the array, read each
stencil term as one basic strided slice taken directly on the pass axis,
and accumulate into a preallocated output; no gather, no axis move. Only
the few *edge* targets apply the mirror-then-clamp rule, tap by tap. The
split is cached per (length, first target, step, stencil), since the
tuner's crops repeat the same few shapes.

Kernel changes are pure speed-ups: every product and sum is rounded in
the same order as the reference gather formula (kept in
``tests/test_splines.py``), so payloads and reconstructions stay
byte-identical (``tests/test_golden_blobs.py`` pins them).

``fvfi=False`` (Table 6 ablation) executes each pass slice-by-slice along
the fastest-varying axis — QoZ's dim-major traversal with poor memory
locality — instead of one vectorized strided pass.

Block-wise tuning (§6.6) supplies a per-32^d-block spline id; each pass
computes the prediction for every spline in use and blends them with the
block mask, so the walk stays vectorized and bit-exact on both sides.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from . import codes as codes_mod
from . import container, lossless, splines
from .quantizer import QuantDecoder, QuantEncoder

ALL = slice(None)

#: spline ids used by block-wise tuning (index into this tuple).
BLOCK_SPLINES = splines.SPLINE_CHOICES


@dataclass(frozen=True)
class InterpConfig:
    """Per-level interpolation configuration (§6.2 selection targets)."""

    paradigm: str = "md"  # "1d" | "md"
    spline: str = "cubic_nat"  # linear | cubic_nak | cubic_nat
    same_level: bool = True  # §5.4.2 (cubic only)
    dim_order: tuple[int, ...] | None = None  # "1d" only

    def to_dict(self) -> dict:
        return {
            "paradigm": self.paradigm,
            "spline": self.spline,
            "same_level": self.same_level,
            "dim_order": list(self.dim_order) if self.dim_order else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "InterpConfig":
        return InterpConfig(
            paradigm=d["paradigm"],
            spline=d["spline"],
            same_level=d["same_level"],
            dim_order=tuple(d["dim_order"]) if d["dim_order"] else None,
        )


@dataclass
class EngineConfig:
    """Full engine configuration, serialized into the payload."""

    anchor_stride: int = 32
    level_configs: tuple[InterpConfig, ...] = (InterpConfig(),)
    alpha: float = 1.0  # Eq. 15
    beta: float = 1.0  # Eq. 15
    frozen_axes: tuple[int, ...] = ()  # §6.3
    md_sigma2: tuple[float, ...] | None = None  # §5.3 sigma_i^2 estimates
    block_size: int = 32  # §6.6 (used when block_cfg set)
    block_cfg: np.ndarray | None = None  # per-block spline id, or None
    fvfi: bool = True  # §5.4.1
    radius: int = 32768

    def level_config(self, l: int) -> InterpConfig:
        return self.level_configs[min(l, len(self.level_configs)) - 1]

    def to_dict(self) -> dict:
        return {
            "anchor_stride": self.anchor_stride,
            "level_configs": [c.to_dict() for c in self.level_configs],
            "alpha": self.alpha,
            "beta": self.beta,
            "frozen_axes": list(self.frozen_axes),
            "md_sigma2": list(self.md_sigma2) if self.md_sigma2 else None,
            "block_size": self.block_size,
            "fvfi": self.fvfi,
            "radius": self.radius,
        }

    @staticmethod
    def from_dict(d: dict) -> "EngineConfig":
        return EngineConfig(
            anchor_stride=d["anchor_stride"],
            level_configs=tuple(
                InterpConfig.from_dict(c) for c in d["level_configs"]
            ),
            alpha=d["alpha"],
            beta=d["beta"],
            frozen_axes=tuple(d["frozen_axes"]),
            md_sigma2=tuple(d["md_sigma2"]) if d["md_sigma2"] else None,
            block_size=d["block_size"],
            fvfi=d["fvfi"],
            radius=d["radius"],
        )


def _stencil_name(spline: str, same_level_phase: bool) -> str:
    if spline == "linear" or not same_level_phase:
        return spline
    return splines.SAME_LEVEL_OF[spline]


@lru_cache(maxsize=4096)
def _stencil_plan(n: int, t0: int, stop: int, step: int, stencil: str) -> tuple:
    """Interior / edge split of the targets ``t0, t0+step, ... < stop`` on
    a line of length ``n``.

    Interior targets (a contiguous range ``k_lo <= k < k_hi``) have every
    stencil neighbour inside the line; each stencil term reads them as
    one basic strided slice. The few edge targets keep the parity-safe
    rule: an out-of-range neighbour is mirrored about the target and,
    failing that, clamped to an even index. Returns ``(nt, interior,
    edges)``: ``interior`` is ``(out slice, ((neighbour slice, w), ...))``
    or None, ``edges`` is ``((out slice, ((neighbour slice, w), ...)), ...)``
    with one-element slices.
    """
    terms = splines.STENCILS[stencil]
    nt = len(range(t0, stop, step))
    reach_lo = -min(off for off, _ in terms)
    reach_hi = max(off for off, _ in terms)
    k_lo = min(nt, max(0, -((t0 - reach_lo) // step)))
    k_hi = max(k_lo, min(nt, (n - 1 - reach_hi - t0) // step + 1))
    interior = None
    if k_hi > k_lo:
        first = t0 + step * k_lo
        last = t0 + step * (k_hi - 1)
        interior = (
            slice(k_lo, k_hi),
            tuple(
                (slice(first + off, last + off + 1, step), w) for off, w in terms
            ),
        )
    n1 = n - 1
    hi_even = n1 - (n1 & 1)
    edges = []
    for k in (*range(k_lo), *range(k_hi, nt)):
        t = t0 + step * k
        taps = []
        for off, w in terms:
            idx = t + off
            if not 0 <= idx <= n1:
                idx = t - off
                if not 0 <= idx <= n1:
                    idx = min(max(idx, 0), hi_even)
            taps.append((slice(idx, idx + 1), w))
        edges.append((slice(k, k + 1), tuple(taps)))
    return nt, interior, tuple(edges)


def _accumulate(
    out: np.ndarray, v: np.ndarray, lead: tuple, terms: tuple, tmp: np.ndarray
) -> None:
    """``out = w0 * v[lead + (sl0,)] + w1 * v[lead + (sl1,)] + ...``, each
    product rounded, then summed left to right, in place."""
    (sl, w), rest = terms[0], terms[1:]
    np.multiply(v[lead + (sl,)], w, out=out)
    for sl, w in rest:
        np.multiply(v[lead + (sl,)], w, out=tmp)
        np.add(out, tmp, out=out)


def _line_predict_safe(
    v: np.ndarray,
    d: int,
    t0: int,
    step: int,
    stencil: str,
    stop: int | None = None,
) -> np.ndarray:
    """Stencil prediction at ``t0, t0+step, ... < stop`` along axis ``d``
    of the float64 array ``v`` (see the module doc for the interior-slice
    / edge-tap split). The result has ``v``'s shape with axis ``d`` cut
    to the targets, in C order."""
    n = v.shape[d]
    nt, interior, edges = _stencil_plan(
        n, t0, n if stop is None else stop, step, stencil
    )
    lead = (ALL,) * d
    out = np.empty(v.shape[:d] + (nt,) + v.shape[d + 1 :])
    if interior is not None:
        osl, terms = interior
        o = out[lead + (osl,)]
        _accumulate(o, v, lead, terms, np.empty_like(o))
    if edges:
        tmp = np.empty(v.shape[:d] + (1,) + v.shape[d + 1 :])
        for ksl, taps in edges:
            _accumulate(out[lead + (ksl,)], v, lead, taps, tmp)
    return out


class _Walk:
    """Shared compress/decompress traversal.

    ``qfun(pred, sel, e_l)`` quantizes (compress) or dequantizes
    (decompress) the targets at selection ``sel`` and returns the
    reconstruction, which the walk writes back into the working array.
    """

    def __init__(
        self,
        a: np.ndarray,
        e: float,
        cfg: EngineConfig,
        qfun: Callable[[np.ndarray, tuple, float], np.ndarray],
    ) -> None:
        self.a = a
        self.e = e
        self.cfg = cfg
        self.qfun = qfun
        nd = a.ndim
        self.frozen = tuple(sorted(set(cfg.frozen_axes)))
        self.active = tuple(
            d for d in range(nd) if d not in self.frozen and a.shape[d] >= 2
        )
        if cfg.block_cfg is not None:
            used = np.unique(cfg.block_cfg)
            self._used_splines = [int(u) for u in used]
        else:
            self._used_splines = []
        self._cur_level = 0

    # -- selection helpers -------------------------------------------------
    def _mk_sel(self, cat: dict[int, slice], d: int, dslice: slice) -> tuple:
        sel = []
        for ax in range(self.a.ndim):
            if ax == d:
                sel.append(dslice)
            elif ax in cat:
                sel.append(cat[ax])
            else:
                sel.append(ALL)
        return tuple(sel)

    def _cfg_ids(self, sel: tuple) -> np.ndarray:
        """Block spline id per target position for selection ``sel``."""
        B = self.cfg.block_size
        axes_pos = []
        for ax, sl in enumerate(sel):
            pos = np.arange(self.a.shape[ax])[sl]
            axes_pos.append(pos // B)
        assert self.cfg.block_cfg is not None
        return self.cfg.block_cfg[np.ix_(*axes_pos)]

    # -- prediction --------------------------------------------------------
    def _pred_1d(
        self, d: int, cat: dict[int, slice], s: int, t0: int, step: int, stencil: str
    ) -> np.ndarray:
        v = self.a[self._mk_sel(cat, d, slice(0, None, s))]
        return _line_predict_safe(v, d, t0, step, stencil)

    def _blend_blocks(
        self,
        sel_t: tuple,
        sl_phase: bool,
        pred_of: Callable[[str], np.ndarray],
        global_spline: str,
    ) -> np.ndarray:
        """Per-block spline blending (§6.6); falls back to the global spline.

        The override applies on the final level only: block tuning scores
        splines at stride 1 (§6.6's sub-block test), which says nothing
        about the coarse levels — there the globally tuned config stays."""
        if self.cfg.block_cfg is None or self._cur_level != 1:
            return pred_of(_stencil_name(global_spline, sl_phase))
        used = self._used_splines
        if len(used) == 1:
            return pred_of(_stencil_name(BLOCK_SPLINES[used[0]], sl_phase))
        ids = self._cfg_ids(sel_t)
        pred: np.ndarray | None = None
        for sid in used:
            p = pred_of(_stencil_name(BLOCK_SPLINES[sid], sl_phase))
            pred = p if pred is None else np.where(ids == sid, p, pred)
        assert pred is not None
        return pred

    # -- passes ------------------------------------------------------------
    def _axis_pass(
        self, d: int, s: int, cat: dict[int, slice], lc: InterpConfig, e_l: float
    ) -> None:
        """Single-axis pass (1d paradigm pass, or md r=1 step)."""
        n = self.a.shape[d]
        if n <= s:
            return
        nt = ((n - 1) // s + 1) // 2  # odd v-grid positions
        split = lc.same_level and lc.spline != "linear" and nt > 1
        phases = ((1, False, 4), (3, True, 4)) if split else ((1, False, 2),)
        for t0, sl_phase, step in phases:
            sel_t = self._mk_sel(cat, d, slice(t0 * s, None, step * s))
            pred = self._blend_blocks(
                sel_t,
                sl_phase,
                lambda st: self._pred_1d(d, cat, s, t0, step, st),
                lc.spline,
            )
            self.a[sel_t] = self.qfun(pred, sel_t, e_l)

    def _md_pass(
        self, A: tuple[int, ...], s: int, lc: InterpConfig, e_l: float
    ) -> None:
        """Multi-dimensional step for points odd along every axis in ``A``."""
        shape = self.a.shape
        if any(shape[d] <= s for d in A):
            return
        cat: dict[int, slice] = {}
        for ax in self.active:
            if ax not in A:
                cat[ax] = slice(0, None, 2 * s)
        for ax in A:
            cat[ax] = slice(s, None, 2 * s)
        d0 = A[0]
        sel_t = self._mk_sel(
            {ax: sl for ax, sl in cat.items() if ax != d0}, d0, cat[d0]
        )
        sig = self.cfg.md_sigma2 or tuple(1.0 for _ in range(self.a.ndim))
        inv = np.array([1.0 / max(sig[d], 1e-30) for d in A])
        w = inv / inv.sum()

        def pred_of(stencil: str) -> np.ndarray:
            acc: np.ndarray | None = None
            for wi, d in zip(w, A):
                cat_d = {ax: sl for ax, sl in cat.items() if ax != d}
                p = self._pred_1d(d, cat_d, s, 1, 2, stencil)
                np.multiply(p, wi, out=p)
                if acc is None:
                    acc = p
                else:
                    np.add(acc, p, out=acc)
            assert acc is not None
            return acc

        pred = self._blend_blocks(sel_t, False, pred_of, lc.spline)
        self.a[sel_t] = self.qfun(pred, sel_t, e_l)

    # -- level driver ------------------------------------------------------
    def _level_passes(self, l: int) -> None:
        self._cur_level = l
        s = 1 << (l - 1)
        e_l = self.e / min(self.cfg.alpha ** (l - 1), self.cfg.beta)
        lc = self.cfg.level_config(l)
        if lc.paradigm == "1d" or len(self.active) == 1:
            order = lc.dim_order if lc.dim_order else self.active
            order = tuple(d for d in order if d in self.active)
            order = order + tuple(d for d in self.active if d not in order)
            for k, d in enumerate(order):
                cat: dict[int, slice] = {}
                for j, dd in enumerate(order):
                    if dd == d:
                        continue
                    cat[dd] = slice(0, None, s) if j < k else slice(0, None, 2 * s)
                self._axis_pass(d, s, cat, lc, e_l)
        else:
            for r in range(1, len(self.active) + 1):
                for A in combinations(self.active, r):
                    if r == 1:
                        d = A[0]
                        cat = {
                            ax: slice(0, None, 2 * s)
                            for ax in self.active
                            if ax != d
                        }
                        self._axis_pass(d, s, cat, lc, e_l)
                    else:
                        self._md_pass(A, s, lc, e_l)

    def run(self) -> None:
        m = int(self.cfg.anchor_stride).bit_length() - 1
        if self.cfg.fvfi or self.a.ndim == 1:
            for l in range(m, 0, -1):
                self._level_passes(l)
            return
        # w/o FVFI (Table 6): dim-major, slice-by-slice traversal along the
        # fastest-varying axis — same arithmetic, poor memory locality.
        self._run_sliced(m)

    def _run_sliced(self, m: int) -> None:
        """Replay the walk restricting each pass to one fast-axis slice at
        a time (QoZ traversal order, §5.4.1). Quantization-stream order
        changes accordingly; compressor and decompressor share the flag."""
        loop_ax = self.a.ndim - 1
        orig_mk_sel = self._mk_sel

        # state: k = current slice index along loop_ax; off = bypass slicing
        # (used when the loop axis itself is a target axis of an md step).
        state = {"k": 0, "off": False}

        def mk_sel_sliced(cat: dict[int, slice], d: int, dslice: slice) -> tuple:
            sel = list(orig_mk_sel(cat, d, dslice))
            if not state["off"] and d != loop_ax:
                pos = np.arange(self.a.shape[loop_ax])[sel[loop_ax]]
                k = state["k"]
                if k < pos.size:
                    p = int(pos[k])
                    sel[loop_ax] = slice(p, p + 1)
                else:
                    sel[loop_ax] = slice(0, 0)
            return tuple(sel)

        def loop_positions(cat: dict[int, slice], d: int) -> int:
            if d == loop_ax:
                return 1
            sel = orig_mk_sel(cat, d, ALL)
            return int(np.arange(self.a.shape[loop_ax])[sel[loop_ax]].size)

        orig_axis_pass = _Walk._axis_pass
        orig_md_pass = _Walk._md_pass
        self._mk_sel = mk_sel_sliced  # type: ignore[method-assign]

        def axis_pass(d, s, cat, lc, e_l):
            if d == loop_ax:
                state["off"] = True
                orig_axis_pass(self, d, s, cat, lc, e_l)
                state["off"] = False
                return
            for k in range(loop_positions(cat, d)):
                state["k"] = k
                orig_axis_pass(self, d, s, cat, lc, e_l)

        def md_pass(A, s, lc, e_l):
            if loop_ax in A:
                state["off"] = True
                orig_md_pass(self, A, s, lc, e_l)
                state["off"] = False
                return
            cat = {ax: slice(0, None, 2 * s) for ax in self.active if ax not in A}
            for k in range(loop_positions(cat, A[0])):
                state["k"] = k
                orig_md_pass(self, A, s, lc, e_l)

        self._axis_pass = axis_pass  # type: ignore[method-assign]
        self._md_pass = md_pass  # type: ignore[method-assign]
        try:
            for l in range(m, 0, -1):
                self._level_passes(l)
        finally:
            self._mk_sel = orig_mk_sel  # type: ignore[method-assign]
            del self._axis_pass
            del self._md_pass


def pass_selections(
    shape: tuple[int, ...], cfg: EngineConfig, levels: tuple[int, ...] | None = None
) -> list[tuple]:
    """Canonical per-pass target selections, mirroring the walk's level/
    pass structure (phases merged, vectorized mode). Used to serialize
    the scattered quantization-code array level-by-level and pass-by-pass
    — homogeneous segments compress far better under the lossless stage
    than natural C order, and the order is independent of phase splits
    and of the fvfi traversal flag. Must stay in lockstep with
    ``_Walk._level_passes`` (pinned by coverage tests)."""
    nd = len(shape)
    frozen = tuple(sorted(set(cfg.frozen_axes)))
    active = tuple(d for d in range(nd) if d not in frozen and shape[d] >= 2)

    def mk_sel(cat: dict[int, slice], d: int, dslice: slice) -> tuple:
        return tuple(
            dslice if ax == d else cat.get(ax, ALL) for ax in range(nd)
        )

    sels: list[tuple] = []
    m = int(cfg.anchor_stride).bit_length() - 1
    for l in range(m, 0, -1):
        if levels is not None and l not in levels:
            continue
        s = 1 << (l - 1)
        lc = cfg.level_config(l)
        if lc.paradigm == "1d" or len(active) == 1:
            order = lc.dim_order if lc.dim_order else active
            order = tuple(d for d in order if d in active)
            order = order + tuple(d for d in active if d not in order)
            for k, d in enumerate(order):
                if shape[d] <= s:
                    continue
                cat: dict[int, slice] = {}
                for j, dd in enumerate(order):
                    if dd == d:
                        continue
                    cat[dd] = slice(0, None, s) if j < k else slice(0, None, 2 * s)
                sels.append(mk_sel(cat, d, slice(s, None, 2 * s)))
        else:
            for r in range(1, len(active) + 1):
                for A in combinations(active, r):
                    if any(shape[d] <= s for d in A):
                        continue
                    cat = {
                        ax: slice(0, None, 2 * s)
                        for ax in active
                        if ax not in A
                    }
                    for ax in A:
                        cat[ax] = slice(s, None, 2 * s)
                    d0 = A[0]
                    sels.append(
                        mk_sel(
                            {ax: sl for ax, sl in cat.items() if ax != d0},
                            d0,
                            cat[d0],
                        )
                    )
    return sels


def _anchor_sel(shape: tuple[int, ...], cfg: EngineConfig, active: tuple[int, ...]) -> tuple:
    sel = []
    for ax in range(len(shape)):
        if ax in active:
            sel.append(slice(0, None, cfg.anchor_stride))
        else:
            sel.append(ALL)
    return tuple(sel)


def compress(
    data: np.ndarray, e: float, cfg: EngineConfig
) -> tuple[bytes, np.ndarray]:
    """Compress ``data`` under absolute bound ``e``; returns (payload,
    reconstruction). The reconstruction is what the decompressor yields —
    handy for in-loop quality estimation during tuning."""
    if e <= 0:
        raise ValueError("error bound must be positive")
    orig_dtype = data.dtype
    a = np.ascontiguousarray(data, dtype=np.float64)
    frozen = tuple(sorted(set(cfg.frozen_axes)))
    active = tuple(
        d for d in range(a.ndim) if d not in frozen and a.shape[d] >= 2
    )
    asel = _anchor_sel(a.shape, cfg, active)
    anchors = np.ascontiguousarray(data[asel])
    enc = QuantEncoder(a.shape, cfg.radius)

    def qfun(pred: np.ndarray, sel: tuple, e_l: float) -> np.ndarray:
        return enc.quantize(pred, a[sel], e_l, sel)

    _Walk(a, e, cfg, qfun).run()

    meta = {
        "shape": list(data.shape),
        "dtype": orig_dtype.str,
        "e": e,
        "cfg": cfg.to_dict(),
    }
    sels = pass_selections(data.shape, cfg)
    stream = (
        np.concatenate([enc.codes[sl].ravel() for sl in sels])
        if sels
        else np.empty(0, dtype=np.int32)
    )
    sections = [
        ("meta", container.json_section(meta)),
        ("anchors", container.array_section(anchors)),
        ("codes", codes_mod.encode(stream, center=cfg.radius)),
    ]
    lits = enc.literals().astype(orig_dtype if orig_dtype.kind == "f" else np.float64)
    if lits.size:
        sections.append(
            ("literals", lossless.compress(container.array_section(lits)))
        )
    if cfg.block_cfg is not None:
        sections.append(
            (
                "blockcfg",
                lossless.compress(
                    container.array_section(cfg.block_cfg.astype(np.uint8))
                ),
            )
        )
    return container.pack(sections), a


def decompress(payload: bytes) -> np.ndarray:
    """Invert :func:`compress`; returns float64 reconstruction."""
    sec = container.unpack(payload)
    meta = container.from_json(sec["meta"])
    cfg = EngineConfig.from_dict(meta["cfg"])
    if "blockcfg" in sec:
        cfg.block_cfg = container.to_array(lossless.decompress(sec["blockcfg"]))
    shape = tuple(meta["shape"])
    e = float(meta["e"])
    codes = codes_mod.decode(sec["codes"])
    if "literals" in sec:
        lits = container.to_array(lossless.decompress(sec["literals"])).astype(
            np.float64
        )
    else:
        lits = np.empty(0, dtype=np.float64)
    codes_arr = np.zeros(shape, dtype=np.int32)
    pos = 0
    for sl in pass_selections(shape, cfg):
        view = codes_arr[sl]
        n = view.size
        codes_arr[sl] = codes[pos : pos + n].reshape(view.shape)
        pos += n
    if pos != codes.size:
        raise ValueError("quantization code stream size mismatch")
    dec = QuantDecoder(codes_arr, lits, cfg.radius)
    a = np.full(shape, np.nan, dtype=np.float64)
    frozen = tuple(sorted(set(cfg.frozen_axes)))
    active = tuple(d for d in range(len(shape)) if d not in frozen and shape[d] >= 2)
    asel = _anchor_sel(shape, cfg, active)
    a[asel] = container.to_array(sec["anchors"]).astype(np.float64)

    def qfun(pred: np.ndarray, sel: tuple, e_l: float) -> np.ndarray:
        return dec.dequantize(pred, e_l, sel)

    _Walk(a, e, cfg, qfun).run()
    return a
