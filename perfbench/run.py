"""Layered HPEZ benchmark.

    python3 perfbench/run.py --workload field_smooth --seed 1 --seconds 18 --trace 0

Workloads: ``field_smooth``, ``field_tight`` (whole-field round trips) and
``spark_blocks`` (the Spark block pipeline). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the ``repro`` modules at run time
and prints the per-layer metrics instead. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Details of the run (samples, set-up parts, the tuner's decisions, the
fields and the host) go to ``perfbench/out/result-*.json``, and the spans
of a traced run to ``perfbench/out/spans-*.json``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from typing import Any

from common import OUT, ROOT, decision_summary, host_facts, rate_mbps, summarize
from tracing import check_spans, layer_metrics

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

REPRO_MODULES = {
    "codecs": "repro.codecs",
    "autotune": "repro.core.autotune",
    "interp": "repro.core.interp",
    "lorenzo": "repro.core.lorenzo",
    "quantizer": "repro.core.quantizer",
    "codes": "repro.core.codes",
    "huffman": "repro.core.huffman",
    "lossless": "repro.core.lossless",
    "container": "repro.core.container",
    "splines": "repro.core.splines",
    "metrics": "repro.core.metrics",
    "fields": "repro.datasets.fields",
}
SPARK_MODULES = {
    "sparkio": "repro.sparkio",
    "blocks": "repro.sparkio.blocks",
    "oracle": "repro.oracle",
}


def load_repro(spark: bool) -> dict[str, Any]:
    """Import the program under test from the checkout's ``src``."""
    if not (ROOT / "src" / "repro" / "codecs.py").is_file():
        raise ImportError(f"no repro sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    mods = dict(REPRO_MODULES, **(SPARK_MODULES if spark else {}))
    return {k: importlib.import_module(v) for k, v in mods.items()}


def overhead(ops: list) -> float:
    """Traced minus untraced compression MB/s within the same run."""
    timed = [o for o in ops if o.measured and o.ok]
    return (rate_mbps([o for o in timed if o.traced], "comp_s")
            - rate_mbps([o for o in timed if not o.traced], "comp_s"))


def per_layer(res: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    tracer = res["tracer"]
    problems = check_spans(tracer.spans)
    m = {k: 0.0 for k in PER_LAYER}
    # Codec layers: the whole-field ops, or the Spark workload's replay.
    m.update(layer_metrics(tracer.spans, res.get("replay_reps") or res["trace_reps"]))
    if "replay_reps" in res:
        m.update(layer_metrics(tracer.spans, res["trace_reps"]))
    for k, v in res["section_bytes"].items():
        m[f"container.{k}_bytes"] = v
    m.update(res["layer_counts"])
    m["trace.overhead_MBps"] = overhead(res["ops"])
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        problems.append(f"unlisted per-layer metrics {sorted(unknown)}")
    return {k: m[k] for k in PER_LAYER}, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        repro = load_repro(spark=args.workload == "spark_blocks")
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "spark_blocks":
        import spark_workload as wl
    else:
        import field_workloads as wl
    res = wl.run(args.workload, args.seed, args.seconds, bool(args.trace), repro)

    e2e, samples = summarize(res["ops"], cr=res["cr"], psnr_db=res["psnr_db"],
                             setup_s=res["setup_s"])
    problems = [f"op {o.rep}: {p}" for o in res["ops"] for p in o.problems]
    layers: dict[str, float] = {}
    if args.trace:
        layers, span_problems = per_layer(res)
        problems += span_problems
    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    if any(not math.isfinite(v) for v in metrics.values()):
        problems.append("a metric is not finite")
    attempted = len(res["ops"])
    failed = sum(not o.ok for o in res["ops"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": metrics,
        "end_to_end": e2e,
        "samples": samples,
        "setup_parts": res["setup_parts"],
        "problems": problems,
        "fields": res["fields"],
        "eps": res["eps"],
        "host": host_facts(res.get("threads", 1)),
        "decisions": res["decisions"],
        "ops": [vars(o) for o in res["ops"]],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        spans = {"fields": ["name", "start", "end", "parent", "rep", "size"],
                 "spans": res["tracer"].spans}
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"decisions: {json.dumps(decision_summary(res['decisions']))}")
    print(f"details: {OUT / f'result-{tag}.json'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"perfbench: finished in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
