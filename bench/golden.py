"""Golden SHA-256 digests of the CLI's default outputs.

The package promises byte-identical CSV, JSON and PGM output; these digests
make that a checked property.  `verify` is hashed on its check names, its
PASS/FAIL column and its summary line only: the residual digits are
diagnostics that a correct kernel change may move.

Record the digests again, from the repository root, with

    python3 bench/golden.py > bench/golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from workloads import Context, import_package, run_cli

GOLDEN_FILE = Path(__file__).with_name("golden.json")

#: argv of each golden output; "{out}" names the file the command writes,
#: otherwise its stdout is the output
CASES = {
    "sweep_csv": ["sweep", "--output", "{out}"],
    "sweep_json": ["sweep", "--format", "json", "--output", "{out}"],
    "husimi_csv": ["husimi", "--T", "1", "--output", "{out}"],
    "husimi_pgm": ["husimi", "--T", "1", "--format", "pgm", "--output", "{out}"],
    "state_json": ["state", "--T", "1", "--format", "json"],
    "noon_json": ["noon", "--N", "3", "--noon-phase", "-1.5707963267948966", "--format", "json"],
    "verify": ["verify"],
}

#: injected faults, for the benchmark's self-test only
FAULTS = ("ladder", "flip")


def _verify_columns(text: str) -> bytes:
    """Check names and PASS/FAIL column of `verify`, plus its summary line."""
    lines = text.splitlines()
    kept = [" ".join(line.split()[:2]) for line in lines[:-1]] + lines[-1:]
    return ("\n".join(kept) + "\n").encode("utf-8")


def produce(ctx: Context, name: str, fault: str | None = None) -> bytes:
    """Run one golden case and return the bytes that are hashed."""
    path = ctx.workdir / f"golden-{name}"
    path.unlink(missing_ok=True)
    argv = [str(path) if arg == "{out}" else arg for arg in CASES[name]]
    if name == "verify" and fault == "ladder":
        argv += ["--perturb-ladder", "1e-6"]
    stdout = run_cli(ctx.cli, argv)
    if name == "verify":
        return _verify_columns(stdout)
    data = path.read_bytes() if "{out}" in CASES[name] else stdout.encode("utf-8")
    if name == "sweep_csv" and fault == "flip":
        data = data[: len(data) // 2] + bytes([data[len(data) // 2] ^ 1]) + data[len(data) // 2 + 1 :]
    return data


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    pkg = import_package(root)
    import stokes_squeeze.cli as cli

    ctx = Context(pkg, cli, root / ".bench_work" / "golden")
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    digests = {name: digest(produce(ctx, name)) for name in CASES}
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
