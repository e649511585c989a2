"""Pieces shared by the benchmark's workloads: the operation record, the
end-to-end summary, blob decoding for decision accounting and host facts.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Section names the interpolation payload may carry; everything else in
#: a blob (codec tag, JSON metas, container framing) counts as meta.
DATA_SECTIONS = ("anchors", "codes", "literals", "blockcfg")


@dataclass
class Op:
    """One closed-loop operation (a round trip or a pipeline rep)."""

    rep: int
    traced: bool
    measured: bool
    ok: bool = False
    orig_bytes: int = 0
    comp_s: float | None = None
    decomp_s: float | None = None
    pipeline_s: float | None = None
    problems: list[str] = field(default_factory=list)


def closed_loop(
    seconds: float, trace: bool, step: Callable[[int], None], min_steps: int = 1
) -> None:
    """Run ``step(0)``, ``step(1)``, ... one at a time. After the first
    ``min_steps``, a step starts only if, at the duration of the previous
    one, it would end within ``seconds`` of the first start. A traced run
    works in pairs (untraced, then traced), so an odd step always runs."""
    t_start = time.perf_counter()
    last = 0.0
    i = 0
    while (
        i < min_steps
        or (trace and i % 2 == 1)
        or time.perf_counter() - t_start + last <= seconds
    ):
        t0 = time.perf_counter()
        step(i)
        last = time.perf_counter() - t0
        i += 1


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def llc_bytes() -> int | None:
    """Size of the last-level cache of CPU 0, or None if not exposed."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best: tuple[int, int] | None = None
    try:
        for idx in base.glob("index*"):
            level = int((idx / "level").read_text())
            if (idx / "type").read_text().strip() == "Instruction":
                continue
            size = (idx / "size").read_text().strip()
            mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            nbytes = int(size.rstrip("KM")) * mult
            if best is None or level > best[0]:
                best = (level, nbytes)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def host_facts(threads: int) -> dict[str, Any]:
    import numpy as np

    return {
        "cpus": os.cpu_count(),
        "threads_used": threads,
        "llc_bytes": llc_bytes(),
        "numpy": np.__version__,
    }


def field_facts(name: str, x: Any, seed: int) -> dict[str, Any]:
    return {
        "generator": name,
        "seed": seed,
        "shape": list(x.shape),
        "dtype": x.dtype.str,
        "bytes": int(x.nbytes),
    }


def decode_blob(blob: bytes, repro: dict[str, Any]) -> tuple[dict, dict[str, int]]:
    """What the tuner chose for one output blob, and its bytes per
    section (``meta`` is everything outside the data sections, so the
    sections sum to ``len(blob)``)."""
    container = repro["container"]
    outer = container.unpack(blob)
    pipe = container.unpack(outer["payload"])
    meta = json.loads(pipe["meta"])
    inner = container.unpack(pipe["inner"])
    sizes = {k: len(inner[k]) for k in DATA_SECTIONS if k in inner}
    sizes["meta"] = len(blob) - sum(sizes.values())
    dec: dict[str, Any] = {"codec": outer["codec"].decode(), "kind": meta["kind"]}
    imeta = json.loads(inner["meta"])
    if meta["kind"] == "lorenzo":
        dec["lorenzo_order"] = imeta["order"]
        return dec, sizes
    cfg = imeta["cfg"]
    levels = [dict(c, level=i + 1) for i, c in enumerate(cfg["level_configs"])]
    dec.update(
        frozen_axes=cfg["frozen_axes"],
        alpha=cfg["alpha"],
        beta=cfg["beta"],
        level_configs=levels,
        block_map="blockcfg" in inner,
    )
    if "blockcfg" in inner:
        bm = container.to_array(repro["lossless"].decompress(inner["blockcfg"]))
        gid = repro["splines"].SPLINE_CHOICES.index(levels[0]["spline"])
        dec["block_map_blocks"] = int(bm.size)
        dec["block_map_overrides"] = int((bm != gid).sum())
    return dec, sizes


def decision_summary(decs: list[dict]) -> dict[str, dict[str, int]]:
    """Counts of each choice over many blobs (one line of the report)."""
    keys = {
        "kind": lambda d: d["kind"],
        "level1": lambda d: "{paradigm}/{spline}/sl={same_level}".format(**d["level_configs"][0])
        if "level_configs" in d else "-",
        "frozen": lambda d: str(d.get("frozen_axes", "-")),
        "alpha_beta": lambda d: f"{d.get('alpha')}/{d.get('beta')}",
        "block_map": lambda d: str(d.get("block_map", False)),
    }
    return {k: dict(Counter(f(d) for d in decs)) for k, f in keys.items()}


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def rate_mbps(ops: list[Op], attr: str) -> float:
    """Original MB per second of the ops' summed ``attr`` wall time.

    Totals, not a median of per-op rates: on ``field_smooth`` the ops are
    different dumps, and over a handful of them the total is steadier."""
    secs = sum(getattr(o, attr) for o in ops)
    return sum(o.orig_bytes for o in ops) / secs / 1e6 if secs else float("nan")


def summarize(
    ops: list[Op],
    *,
    cr: float,
    psnr_db: float,
    setup_s: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics from the measured, untraced operations.
    Returns (metrics, sample counts)."""
    timed = [o for o in ops if o.measured and not o.traced and o.ok]
    attempted = len(ops)
    failed = sum(not o.ok for o in ops)
    metrics = {
        "comp_MBps": rate_mbps(timed, "comp_s"),
        "decomp_MBps": rate_mbps(timed, "decomp_s"),
        "cr": cr,
        "psnr_db": psnr_db,
        "pipeline_s": sum(o.pipeline_s for o in timed) / len(timed) if timed else float("nan"),
        "setup_s": setup_s,
        "peak_rss_MB": peak_rss_mb(),
        "ok_frac": 1.0 - failed / max(attempted, 1),
    }
    return metrics, {"timed_ops": len(timed)}
