"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

It checks that
  * a short run of each workload, untraced and traced, prints exactly the
    metrics BENCHMARK.json names, each with its unit, and no failure;
  * failures register: `verify --perturb-ladder 1e-6` exits 1 with 2 of 25
    checks failed, and a run with that perturbation, or with one flipped
    byte in a golden output, reports failed ops (error rate above 0);
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits nonzero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, import_package  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(result, spec: list[dict]) -> str | None:
    if result is None or set(result) != RESULT_KEYS:
        return f"result keys {sorted(result or ())}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"correct={result['correct']} failed={result['failed']}"
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics differ: missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}"
    bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    return f"non-numeric {bad}" if bad else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def report(name: str, problem: str | None) -> None:
        print(f"{'FAIL' if problem else 'PASS'}  {name}" + (f": {problem}" if problem else ""))
        if problem:
            problems.append(name)

    names = [w["name"] for w in spec["workloads"]]
    report("workloads match BENCHMARK.json", None if names == list(WORKLOADS) else str(names))
    for workload in names:
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, out = bench("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", trace)
            problem = f"exit {code}" if code else check_metrics(last_json(out), metrics)
            report(f"{workload} --trace {trace} metrics", problem)

    import_package(ROOT)
    import stokes_squeeze.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--perturb-ladder", "1e-6"])
    summary = out.getvalue().strip().splitlines()[-1]
    report(
        "perturbed ladder fails verify",
        None if code == 1 and summary == "23/25 checks passed" else f"exit {code}, {summary!r}",
    )
    for fault in ("ladder", "flip"):
        code, out = bench("--workload", "triphoton_sweep", "--seed", "7", "--seconds", "1", "--fault", fault)
        result = last_json(out)
        failed = result is not None and result["failed"] > 0 and not result["correct"]
        report(f"fault {fault} raises the error rate", None if code == 0 and failed else f"exit {code}, {result}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench("--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    report("bare directory exits nonzero without a result", None if code and last_json(out) is None else f"exit {code}")

    print(f"{len(problems)} self-test check(s) failed" if problems else "all self-test checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
