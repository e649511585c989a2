"""``spark_blocks``: the ``field_smooth`` Miranda field (its first dump)
through the Spark block pipeline in local mode, one rep at a time:

    to_blocks_df -> compress_df -> write_compressed -> read_compressed +
    decompress_df -> reassemble

followed by the checks (block error statistics in Spark SQL, the DuckDB
oracle). The session's scratch space, Parquet output and temporary files
all stay under ``perfbench/out``.

Driver-side wrappers do not reach the executors, so a traced run gets its
codec-layer numbers by replaying the block rows in this process through
``codecs.compress``/``decompress``, the call the kernel makes.
"""
from __future__ import annotations

import dataclasses
import os
import shlex
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from common import OUT, ROOT, Op, closed_loop, decode_blob, field_facts, median
from field_workloads import CODEC, WORKLOADS, dump_seeds, generate
from tracing import Tracer, targets

BLOCK = (64, 64, 64)
SOURCE = WORKLOADS["field_smooth"]
#: Times each rep runs the decompression stage. The stage takes about 1 s,
#: too short for one sample per rep to be steady. The first run feeds
#: reassemble; the others follow the checks, outside the pipeline's time.
DECOMP_RUNS = 3

SUMMARY_SQL = (
    "SELECT SUM(n) AS n, MAX(max_abs_err) AS max_abs_err, "
    "SQRT(SUM(sse) / SUM(n)) AS rmse, MAX(vmax) - MIN(vmin) AS value_range "
    "FROM stats"
)


@contextmanager
def stage(times: dict[str, tuple[float, float]], name: str) -> Iterator[None]:
    """Record the wall-clock interval of a block under ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[name] = (t0, time.perf_counter())


def threads() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def start_session(n_threads: int):
    """Local-mode session whose files stay inside the checkout."""
    tmp = OUT / "spark-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's own JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{n_threads}]",
            "--driver-memory 1g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(n_threads))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(OUT / "spark-warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    if proc.stdin is not None:
        proc.stdin.close()  # the gateway JVM exits at end of input
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class SparkRun:
    def __init__(self, spark, x: np.ndarray, e_abs: float, repro: dict[str, Any]) -> None:
        self.spark = spark
        self.x = x
        self.e_abs = e_abs
        self.repro = repro
        blocks = repro["blocks"].split_blocks(x, BLOCK)
        self.block_vals = {bid: vals for bid, _origin, vals in blocks}
        self.ref_blobs: dict[int, bytes] | None = None
        self.ops: list[Op] = []
        self.stage_times: list[tuple[int, dict[str, tuple[float, float]]]] = []
        self.wire_bytes: list[int] = []
        self.psnr: float | None = None

    def rep(self, *, measured: bool, traced: bool, checks: bool) -> Op:
        """One pipeline rep; returns the gated operation. Every
        rep checks the reassembled field against the bound and its blobs
        against the first rep's; ``checks`` adds the Spark SQL error
        summary, the DuckDB oracle and a driver replay of one block. These
        run after the pipeline, outside its timing."""
        sparkio, oracle = self.repro["sparkio"], self.repro["oracle"]
        x, e_abs = self.x, self.e_abs
        op = Op(rep=len(self.ops), traced=traced, measured=measured, orig_bytes=int(x.nbytes))
        self.ops.append(op)
        path = OUT / f"wire-{op.rep}.parquet"
        t: dict[str, tuple[float, float]] = {}
        cached = []
        try:
            with stage(t, "sparkio.shred"):
                df = sparkio.to_blocks_df(self.spark, x, BLOCK).cache()
                cached.append(df)
                n_blocks = df.count()
            with stage(t, "sparkio.compress"):
                comp = sparkio.compress_df(df, CODEC, e_abs, mode="abs").cache()
                cached.append(comp)
                rows = comp.select("block_id", "orig_bytes", "comp_bytes", "blob").collect()
            with stage(t, "store.write"):
                sparkio.write_compressed(comp, str(path))
            with stage(t, "sparkio.decompress"):
                deco = sparkio.decompress_df(sparkio.read_compressed(self.spark, str(path))).cache()
                cached.append(deco)
                deco.count()
            with stage(t, "sparkio.reassemble"):
                y = sparkio.reassemble(deco, x.shape)
            if checks:
                with stage(t, "sparkio.verify"):
                    stats = sparkio.blockwise_error_stats(df, deco).cache()
                    cached.append(stats)
                    summary = sparkio.global_error_summary(stats)
                    srow = summary.collect()[0]
                with stage(t, "oracle.check"):
                    oracle.assert_equivalent(summary, SUMMARY_SQL, stats=stats)
            # While ``deco`` is cached, an identical plan would be served
            # from the cache instead of decompressing again.
            deco.unpersist()
            decomp_s = [t["sparkio.decompress"][1] - t["sparkio.decompress"][0]]
            for _ in range(DECOMP_RUNS - 1):
                t0 = time.perf_counter()
                again = sparkio.decompress_df(sparkio.read_compressed(self.spark, str(path))).cache()
                cached.append(again)
                again.count()
                decomp_s.append(time.perf_counter() - t0)
                again.unpersist()
        except Exception:  # a rep that raises, or an oracle mismatch, fails
            traceback.print_exc(file=sys.stderr)
            op.problems.append("raised")
            return op
        finally:
            for d in cached:
                d.unpersist()
        wire = sum(p.stat().st_size for p in path.glob("part-*"))
        shutil.rmtree(path, ignore_errors=True)

        op.comp_s = t["sparkio.compress"][1] - t["sparkio.compress"][0]
        op.decomp_s = sum(decomp_s) / len(decomp_s)
        op.pipeline_s = t["sparkio.reassemble"][1] - t["sparkio.shred"][0]
        blobs = {int(r.block_id): bytes(r.blob) for r in rows}
        if n_blocks != len(blobs) or any(r.comp_bytes != len(r.blob) for r in rows):
            op.problems.append("compressed block table does not match the blocks")
        err = float(np.abs(x.astype(np.float64) - y).max())
        if not err <= e_abs:
            op.problems.append(f"reassembled max error {err} > bound {e_abs}")
        if checks and not (srow.max_abs_err <= e_abs and srow.n == x.size):
            op.problems.append(f"Spark error summary {srow} breaks the bound {e_abs}")
        self.stage_times.append((op.rep, t))
        self.wire_bytes.append(wire)
        if self.ref_blobs is None:
            self.ref_blobs = blobs
            self.psnr = self.repro["metrics"].psnr(x, y)
        elif blobs != self.ref_blobs:
            op.problems.append("block blobs differ from the first rep")
        if checks:
            bid = op.rep % len(blobs)
            replayed = self.repro["codecs"].compress(CODEC, self.block_vals[bid], e_abs, mode="abs")
            if replayed != blobs[bid]:
                op.problems.append(f"driver replay of block {bid} differs from the kernel's blob")
        op.ok = not op.problems
        return op

    def traced_replay(self, tracer: Tracer) -> Op:
        """Replay every block row through the codec with the wrappers on;
        one operation whose spans give the codec-layer numbers."""
        codecs = self.repro["codecs"]
        op = Op(rep=len(self.ops), traced=True, measured=False,
                orig_bytes=int(self.x.nbytes))
        self.ops.append(op)
        tracer.install(targets(self.repro))
        tracer.rep = op.rep
        try:
            out = {}
            for bid, vals in self.block_vals.items():
                blob = codecs.compress(CODEC, vals, self.e_abs, mode="abs")
                out[bid] = (blob, codecs.decompress(blob))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op.problems.append("replay raised")
            return op
        finally:
            tracer.rep = None
            tracer.uninstall()
        for bid, (blob, y) in out.items():
            if self.ref_blobs is None or blob != self.ref_blobs.get(bid):
                op.problems.append(f"driver replay of block {bid} differs from the kernel's blob")
            err = float(np.abs(self.block_vals[bid].astype(np.float64) - y).max())
            if not err <= self.e_abs:
                op.problems.append(f"replayed block {bid} max error {err} > bound {self.e_abs}")
        op.ok = not op.problems
        return op

    def partition_skew(self) -> tuple[float, int]:
        from pyspark.sql import functions as F

        df = self.repro["sparkio"].to_blocks_df(self.spark, self.x, BLOCK)
        parts = df.rdd.getNumPartitions()
        counts = [r["count"] for r in df.groupBy(F.spark_partition_id().alias("p")).count().collect()]
        return max(counts) / (sum(counts) / parts), sum(counts)


def run(name: str, seed: int, seconds: float, trace: bool, repro: dict[str, Any]) -> dict[str, Any]:
    xs, gen_s = generate(dataclasses.replace(SOURCE, dumps=1), seed, repro)
    x = xs[0]
    e_abs = SOURCE.eps * repro["metrics"].value_range(x)
    n_threads = threads()
    t0 = time.perf_counter()
    spark = start_session(n_threads)
    session_s = time.perf_counter() - t0
    try:
        state = SparkRun(spark, x, e_abs, repro)
        t0 = time.perf_counter()
        state.rep(measured=False, traced=False, checks=True)
        warm_s = time.perf_counter() - t0
        setup_s = median(gen_s) + session_s + warm_s

        tracer = Tracer() if trace else None

        def step(i: int) -> None:
            traced = trace and i % 2 == 1
            state.rep(measured=True, traced=traced, checks=traced)

        closed_loop(seconds, trace, step)
        layer_counts: dict[str, float] = {}
        trace_reps: set[int] = set()
        replay_reps: set[int] = set()
        if tracer is not None:
            for rep, times in state.stage_times:
                if state.ops[rep].traced:
                    for sname, (a, b) in times.items():
                        tracer.record(sname, a, b, rep)
                    trace_reps.add(rep)
            replay_reps.add(state.traced_replay(tracer).rep)
            skew, n_blocks = state.partition_skew()
            layer_counts = {
                "sparkio.blocks": float(n_blocks),
                "sparkio.partition_skew": skew,
                "store.wire_bytes": median([float(w) for w in state.wire_bytes]),
            }
    finally:
        stop_session(spark)

    decisions = []
    section_bytes: dict[str, float] = {}
    for bid, blob in sorted((state.ref_blobs or {}).items()):
        dec, sizes = decode_blob(blob, repro)
        decisions.append(dict(dec, block=bid))
        for k, v in sizes.items():
            section_bytes[k] = section_bytes.get(k, 0) + v
    comp = sum(len(b) for b in (state.ref_blobs or {}).values())
    return {
        "ops": state.ops,
        "cr": x.nbytes / comp if comp else float("nan"),
        "psnr_db": state.psnr if state.psnr is not None else float("nan"),
        "setup_s": setup_s,
        "setup_parts": {"generate_s": gen_s, "session_s": session_s, "warmup_s": warm_s},
        "fields": [field_facts(SOURCE.generator, x, dump_seeds(seed, 1)[0])],
        "eps": SOURCE.eps,
        "threads": n_threads,
        "decisions": decisions,
        "section_bytes": section_bytes,
        "tracer": tracer,
        "trace_reps": trace_reps,
        "replay_reps": replay_reps,
        "layer_counts": layer_counts,
    }
