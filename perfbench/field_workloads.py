"""Whole-field workloads: one client compresses and decompresses untiled
fields with ``codecs.compress("hpez", x, eps)`` in a closed loop.

``field_smooth`` is a series of Miranda dumps, like a simulation writing
one field after another. A series is needed because the tuner's choices
differ between realisations of the same generator (the level-1 spline in
particular), so the compression ratio of a single 192^3 dump varies
roughly twofold between seeds; a run's ratio over several dumps is
steady enough to compare commits. ``field_tight`` repeats one JHTDB
field, whose ratio barely changes between seeds.

An untraced run times every dump at least once, even past ``--seconds``,
so the speeds and ``cr`` of a seed always cover the same fields and do
not depend on how fast the code is. A traced run times pairs for as long
as ``--seconds`` allows and then compresses the dumps it did not reach
once, untimed, for ``cr``, ``psnr_db`` and the decisions.
"""
from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

import numpy as np

from common import Op, closed_loop, decode_blob, field_facts, median
from tracing import Tracer, targets

CODEC = "hpez"
#: Generations made during set-up; set-up time is the median of these.
MIN_SETUPS = 3


@dataclass(frozen=True)
class FieldWorkload:
    generator: str
    shape: tuple[int, ...]
    eps: float  # value-range-relative error bound
    dumps: int  # distinct fields per run


WORKLOADS = {
    "field_smooth": FieldWorkload("miranda", (192, 192, 192), 1e-3, dumps=6),
    "field_tight": FieldWorkload("jhtdb", (184, 184, 184), 1e-5, dumps=1),
}


def dump_seeds(seed: int, n: int) -> list[int]:
    """Generator seeds of a run's dumps, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def generate(spec: FieldWorkload, seed: int, repro: dict[str, Any]) -> tuple[list, list[float]]:
    """The run's fields and the time each generation took. Every field
    is generated at its full shape; nothing is tiled."""
    gen = getattr(repro["fields"], spec.generator)
    seeds = dump_seeds(seed, spec.dumps)
    xs: list[np.ndarray] = []
    gen_s: list[float] = []
    for i in range(max(spec.dumps, MIN_SETUPS)):
        t0 = time.perf_counter()
        x = gen(shape=spec.shape, seed=seeds[i % spec.dumps])
        gen_s.append(time.perf_counter() - t0)
        if i < spec.dumps:
            xs.append(x)
        elif not np.array_equal(x, xs[i % spec.dumps]):
            raise RuntimeError(f"{spec.generator} is not deterministic in its seed")
    return xs, gen_s


class FieldRun:
    """State of one run: fields, reference blobs and the operations."""

    def __init__(self, spec: FieldWorkload, seed: int, repro: dict[str, Any]) -> None:
        self.spec = spec
        self.repro = repro
        self.seeds = dump_seeds(seed, spec.dumps)
        self.xs, self.gen_s = generate(spec, seed, repro)
        vr = repro["metrics"].value_range
        self.bounds = [spec.eps * vr(x) for x in self.xs]
        self.blobs: dict[int, bytes] = {}  # first blob of each dump
        self.psnr: dict[int, float] = {}
        self.ops: list[Op] = []

    def round_trip(self, dump: int, *, measured: bool, tracer: Tracer | None) -> Op:
        codecs = self.repro["codecs"]
        x = self.xs[dump]
        op = Op(rep=len(self.ops), traced=tracer is not None, measured=measured,
                orig_bytes=int(x.nbytes))
        self.ops.append(op)
        if tracer is not None:
            tracer.install(targets(self.repro))
            tracer.rep = op.rep
        try:
            t0 = time.perf_counter()
            blob = codecs.compress(CODEC, x, self.spec.eps)
            t1 = time.perf_counter()
            y = codecs.decompress(blob)
            t2 = time.perf_counter()
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            op.problems.append("raised")
            return op
        finally:
            if tracer is not None:
                tracer.rep = None
                tracer.uninstall()
        op.comp_s, op.decomp_s, op.pipeline_s = t1 - t0, t2 - t1, t2 - t0
        if y.shape != x.shape:
            op.problems.append(f"shape {y.shape} != {x.shape}")
        else:
            err = float(np.abs(x.astype(np.float64) - y).max(initial=0.0))
            if not err <= self.bounds[dump]:
                op.problems.append(f"max error {err} > bound {self.bounds[dump]}")
        ref = self.blobs.setdefault(dump, blob)
        if ref != blob:
            op.problems.append(f"blob of dump {dump} differs from its first compression")
        if dump not in self.psnr and y.shape == x.shape:
            self.psnr[dump] = self.repro["metrics"].psnr(x, y)
        op.ok = not op.problems
        return op


def run(name: str, seed: int, seconds: float, trace: bool, repro: dict[str, Any]) -> dict[str, Any]:
    spec = WORKLOADS[name]
    state = FieldRun(spec, seed, repro)
    t0 = time.perf_counter()
    state.round_trip(0, measured=False, tracer=None)  # warm-up
    warm_s = time.perf_counter() - t0
    setup_s = median(state.gen_s) + warm_s

    tracer = Tracer() if trace else None

    def step(i: int) -> None:
        if trace:
            # untraced then traced round trip of the same dump: the pair
            # gives the tracing overhead
            state.round_trip((i // 2) % spec.dumps, measured=True, tracer=tracer if i % 2 else None)
        else:
            state.round_trip(i % spec.dumps, measured=True, tracer=None)

    closed_loop(seconds, trace, step, min_steps=2 if trace else spec.dumps)
    for d in range(spec.dumps):
        if d not in state.blobs:
            state.round_trip(d, measured=False, tracer=None)

    done = sorted(state.blobs)
    decisions = []
    section_bytes: dict[str, float] = {}
    for d in done:
        dec, sizes = decode_blob(state.blobs[d], repro)
        decisions.append(dict(dec, dump=d, seed=state.seeds[d]))
        for k, v in sizes.items():  # mean bytes per dump
            section_bytes[k] = section_bytes.get(k, 0) + v / len(done)
    orig = sum(state.xs[d].nbytes for d in done)
    comp = sum(len(state.blobs[d]) for d in done)
    return {
        "ops": state.ops,
        "cr": orig / comp if comp else float("nan"),
        "psnr_db": median([state.psnr[d] for d in done if d in state.psnr]),
        "setup_s": setup_s,
        "setup_parts": {"generate_s": state.gen_s, "warmup_s": warm_s},
        "fields": [field_facts(spec.generator, state.xs[d], state.seeds[d]) for d in range(spec.dumps)],
        "eps": spec.eps,
        "decisions": decisions,
        "section_bytes": section_bytes,
        "tracer": tracer,
        "trace_reps": {o.rep for o in state.ops if o.traced},
        "layer_counts": {},
    }
