"""Benchmark of the stokes-squeeze package: one workload, one seed, one run.

    python3 bench/run.py --workload triphoton_sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory and driven through `stokes_squeeze.cli.main(argv)` and the
public library functions, in a fresh worker process per run.  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1.  The lines before it give each metric with its unit, the
latency sample count and the provenance of the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from golden import FAULTS  # noqa: E402
from reference import block_scales, nominal  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters timed per untraced run; setup_s is their median
SETUP_PROBES = 7
#: seconds a worker may take to import and warm up
SETUP_TIMEOUT = 60.0
#: seconds a worker may take after --seconds for its golden checks
FINISH_TIMEOUT = 90.0
#: the worker's BLAS runs on one thread.  A BLAS pool of several threads on
#: a few shared cores spins and waits on the other cores, so its op times
#: measure the other tenants' load rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(config: dict, timeout: float) -> tuple[float, float, dict | None]:
    """Run one worker.

    Returns its set-up seconds, its reference-kernel seconds taken right
    after set-up, and its result, if any.
    """
    command = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE, text=True
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
        ready = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RuntimeError("worker failed before it was ready")
        gauge = proc.stdout.readline().split()
        if len(gauge) != 2 or gauge[0] != "REFERENCE":
            raise RuntimeError("worker did not report its reference timing")
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, float(gauge[1]), (json.loads(out.splitlines()[-1]) if out.strip() else None)


def end_to_end(result: dict, setup: list[tuple[float, float]], scaled: bool) -> tuple[dict, int]:
    """End-to-end metrics of an untraced run and the sample count beyond p90.

    With `scaled`, times are rescaled to a machine of reference speed (see
    reference.py): each op by the reference timings of the blocks around
    its own, each set-up by the timing its worker took right after set-up.
    Throughput is taken per block, the workload's balanced unit of ops, as
    the median over complete blocks: the op mix is then the same in every
    sample, and a stall of the machine moves the median less than the mean.
    """
    kernel, blocks = WORKLOADS[result["workload"]].reference, result["blocks"]
    scales = block_scales(kernel, [ref for ref, _ in blocks]) if scaled else [1.0] * len(blocks)
    size = max(len(latencies) for _, latencies in blocks)
    lat_ms, rates = [], []
    for scale, (_, latencies) in zip(scales, blocks):
        ok = [scale * lat for lat in latencies if lat is not None]
        lat_ms += [1e3 * lat for lat in ok]
        if len(ok) == size:
            rates.append(size / sum(ok))
    if not rates:  # a run too short for one whole block
        rates.append(len(lat_ms) / (sum(lat_ms) / 1e3))
    lat_ms.sort()
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    setup_s = [t * nominal(kernel) / ref if scaled else t for t, ref in setup]
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }, sum(1 for x in lat_ms if x > p90)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=FAULTS, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stokes_squeeze" / "__init__.py").is_file():
        print(f"error: no stokes_squeeze package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fault": args.fault,
    }
    runs = 1 if args.trace else SETUP_PROBES
    setup = []
    try:
        for index in range(runs):
            probe = index < runs - 1
            seconds, gauge, result = spawn({**config, "probe": probe}, args.seconds + FINISH_TIMEOUT)
            setup.append((seconds, gauge))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = sum(lat is not None for _, block in result.get("blocks", ()) for lat in block)
    if args.trace:
        metrics = result["layers"]
    elif samples:
        metrics, beyond = end_to_end(result, setup, scaled=True)
        raw, _ = end_to_end(result, setup, scaled=False)
    else:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    info = {
        **result["provenance"],
        "git_commit": _git_commit(ROOT),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if not args.trace:
        info.update(
            ops=samples,
            ops_beyond_p90=beyond,
            setup_samples_s=[t for t, _ in setup],
            speed_scale=statistics.median(
                block_scales(WORKLOADS[args.workload].reference, [r for r, _ in result["blocks"]])
            ),
            unscaled={name: value for name, (value, _) in raw.items()},
        )
        if beyond < 10:
            print(f"warning: only {beyond} samples beyond p90", file=sys.stderr)
    print("provenance " + json.dumps(info))
    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} checked calls failed)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
