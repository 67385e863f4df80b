"""One workload process of the benchmark.

run.py starts it as `python3 bench/worker.py '<config JSON>'`.  It imports
the package from the checkout, runs one untimed op of each kind to fill the
caches, and prints READY; run.py times set-up from spawning the process to
that line.  Next it prints `REFERENCE <seconds>`, the reference kernel's
time right after set-up, by which run.py scales that set-up time.  A set-up
probe exits there.  Otherwise the worker runs the closed loop (one client,
no threads): it times each op, checks its output, compares the golden
outputs, and prints its raw measurements as one JSON line.

With trace on, the run is split in half: the first half runs untraced and
the second traced, over the same op sequence, so the tracing overhead is
measured on matched ops.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import golden
import reference
from tracing import Tracer
from workloads import WORKLOADS, Context, block_stream, import_package

#: failure messages echoed to stderr per run
MAX_REPORTED_FAILURES = 5
#: reference-kernel timings taken right after set-up, to scale set-up time
SETUP_GAUGES = 5


class Tally:
    """Every checked program call: warm-up ops, timed ops and golden outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {message}", file=sys.stderr)

    def run_op(self, workload, ctx, op, tracer=None, op_id=0):
        """Time and check one op; (latency_s, bytes_out) or None if it failed."""
        self.attempted += 1
        try:
            call, check = workload.prepare(op, ctx)
            if tracer is not None:
                tracer.op = op_id
            try:
                start = time.perf_counter()
                outcome = call()
                latency = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.op = None
            return latency, check(outcome)
        except Exception as exc:  # the loop keeps running; the op counts as failed
            self.fail(f"{workload.name} {op}: {type(exc).__name__}: {exc}")
            return None

    def check_golden(self, ctx, fault) -> None:
        expected = json.loads(golden.GOLDEN_FILE.read_text())
        for name in golden.CASES:
            self.attempted += 1
            try:
                actual = golden.digest(golden.produce(ctx, name, fault))
            except Exception as exc:
                self.fail(f"golden {name}: {type(exc).__name__}: {exc}")
                continue
            if actual != expected.get(name):
                self.fail(f"golden {name}: sha256 {actual} != {expected.get(name)}")


def measure(workload, ctx, seed, seconds, tally, tracer=None) -> list:
    """Closed loop over the seeded op stream for `seconds` of wall time.

    Returns one [reference kernel seconds, samples] pair per block: the
    kernel is timed just before the block, and a sample is an op's
    (latency_s, bytes_out), or None if it failed.  The last block may be cut
    short by the deadline.
    """
    blocks, op_id = [], 0
    deadline = time.perf_counter() + seconds
    for block in block_stream(workload, seed):
        samples = []
        blocks.append([reference.time_kernel(workload.reference), samples])
        for op in block:
            if time.perf_counter() >= deadline:
                return blocks
            samples.append(tally.run_op(workload, ctx, op, tracer, op_id))
            op_id += 1


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def provenance(root: Path) -> dict:
    import numpy

    config = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = config.get("blas", {})
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "STOKES_SQUEEZE_THREADS": os.environ.get("STOKES_SQUEEZE_THREADS", "unset"),
        "src_sha256": source.hexdigest(),
    }


def _cache_lookups():
    """(hits, misses) of the Stokes-matrix cache, or None if it is gone."""
    cached = getattr(sys.modules.get("stokes_squeeze.spin_core"), "_stokes_matrices", None)
    if not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return info.hits, info.misses


def _samples(workload, blocks, scaled: bool) -> list:
    """Samples of all blocks in order; with `scaled`, latencies speed-scaled."""
    scales = reference.block_scales(workload.reference, [ref for ref, _ in blocks])
    return [
        None if sample is None else ((scale if scaled else 1.0) * sample[0], sample[1])
        for scale, (_, samples) in zip(scales, blocks)
        for sample in samples
    ]


def _ok(samples) -> list:
    return [s for s in samples if s is not None]


def traced_layers(workload, ctx, cfg, tally) -> dict:
    half = cfg["seconds"] / 2
    plain = measure(workload, ctx, cfg["seed"], half, tally)
    tracer = Tracer()
    tracer.install()
    before = _cache_lookups()
    try:
        traced = measure(workload, ctx, cfg["seed"], half, tally, tracer)
    finally:
        tracer.uninstall()
    after = _cache_lookups()

    traced_raw = _samples(workload, traced, scaled=False)
    traced_ok = _ok(traced_raw)
    layers = tracer.summarize(len(traced_raw), sum(lat for lat, _ in traced_ok))
    lookups = (0, 0) if before is None else (after[0] - before[0], after[1] - before[1])
    layers["spin_core.stokes_cache.hit_ratio"] = (
        lookups[0] / sum(lookups) if sum(lookups) else 0.0,
        "ratio",
    )
    layers["cli.bytes_out_per_op"] = (
        sum(b for _, b in traced_ok) / max(len(traced_ok), 1),
        "bytes",
    )
    # overhead on the ops both halves ran, speed-scaled so that a change of
    # machine speed between the halves does not read as tracing cost
    matched = [
        (a[0], b[0])
        for a, b in zip(_samples(workload, plain, True), _samples(workload, traced, True))
        if a is not None and b is not None
    ]
    plain_s = sum(a for a, _ in matched)
    traced_s = sum(b for _, b in matched)
    layers["trace.untraced_ops_per_s"] = (len(matched) / plain_s if plain_s else 0.0, "1/s")
    layers["trace.traced_ops_per_s"] = (len(matched) / traced_s if traced_s else 0.0, "1/s")
    layers["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0, "%")
    tracer.write(
        ctx.workdir.parent / "traces" / f"{workload.name}.json.gz",
        workload=workload.name,
        seed=cfg["seed"],
    )
    return layers


def main() -> int:
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"])
    pkg = import_package(root)
    import stokes_squeeze.cli as cli

    workload = WORKLOADS[cfg["workload"]]
    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(pkg, cli, workdir)
        tally = Tally()
        for op in workload.warm:
            tally.run_op(workload, ctx, op)
        print("READY", flush=True)
        gauge = [reference.time_kernel(workload.reference) for _ in range(SETUP_GAUGES)]
        print(f"REFERENCE {statistics.median(gauge)!r}", flush=True)
        if cfg["probe"]:
            return 0

        result = {"provenance": provenance(root)}
        if cfg["trace"]:
            result["layers"] = traced_layers(workload, ctx, cfg, tally)
        else:
            blocks = measure(workload, ctx, cfg["seed"], cfg["seconds"], tally)
            result["blocks"] = [
                [ref, [None if s is None else s[0] for s in samples]] for ref, samples in blocks
            ]
            result["workload"] = workload.name
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally.check_golden(ctx, cfg.get("fault"))
        result["attempted"], result["failed"] = tally.attempted, tally.failed
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
