"""Benchmark workloads: seeded inputs, one timed operation, and its oracle.

A workload draws its operations in small balanced blocks.  Within a block
every op kind (output format, spin size, state family) appears in its fixed
share and cost-relevant sizes are stratified, so two seeds differ in the
concrete inputs but not in the op mix; a run then measures the program, not
the luck of the draw.

Each op is prepared in two halves: `call` is the timed program invocation and
`check` is the oracle run after it, outside the timer.  Oracles take a route
independent of the one being timed (closed forms, physical invariants,
file-format facts) and raise `OracleError` on a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class OracleError(AssertionError):
    """An operation completed but its output is wrong."""


def import_package(root: Path):
    """Import stokes_squeeze from `root`/src, never from anywhere else."""
    src = root / "src"
    if not (src / "stokes_squeeze" / "__init__.py").is_file():
        raise FileNotFoundError(f"no stokes_squeeze package under {src}")
    sys.path.insert(0, str(src))
    import stokes_squeeze

    origin = Path(stokes_squeeze.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"stokes_squeeze imported from {origin}, not from {src}")
    return stokes_squeeze


@dataclass
class Context:
    """What an op needs besides its inputs: the package and a scratch dir."""

    pkg: object
    cli: object
    workdir: Path


def run_cli(cli, argv: list[str]) -> str:
    """Call the CLI in-process; return its stdout, raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        raise OracleError(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _close(actual: float, expected: float, tol: float, what: str) -> None:
    if not abs(actual - expected) <= tol:
        raise OracleError(f"{what} = {actual!r}, expected {expected!r} (tol {tol:g})")


def _stratified(rng: random.Random, count: int) -> list[float]:
    """`count` uniforms in [0, 1), one per equal-width stratum, shuffled."""
    values = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# triphoton_sweep: `sweep` over the N = 3 family, CSV or JSON
# ---------------------------------------------------------------------------

SWEEP_STEPS = (101, 361)
SQRT3 = math.sqrt(3.0)


def _sweep_block(rng: random.Random) -> list[dict]:
    formats = ["csv"] * 4 + ["json"] * 4
    rng.shuffle(formats)
    lo, hi = SWEEP_STEPS
    return [
        {
            "t_min": rng.uniform(0.0, 0.5),
            "t_max": rng.uniform(1.2, 3.0),
            "steps": lo + int(u * (hi - lo + 1)),
            "format": fmt,
        }
        for fmt, u in zip(formats, _stratified(rng, len(formats)))
    ]


def _sweep_rows(data: bytes, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(data)["records"]
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _sweep_prepare(op: dict, ctx: Context):
    path = ctx.workdir / f"sweep.{op['format']}"
    path.unlink(missing_ok=True)
    argv = [
        "sweep",
        "--t-min", repr(op["t_min"]),
        "--t-max", repr(op["t_max"]),
        "--steps", str(op["steps"]),
        "--format", op["format"],
        "--output", str(path),
    ]

    def check(_outcome) -> int:
        data = path.read_bytes()
        rows = _sweep_rows(data, op["format"])
        # CSV carries 12 significant digits, JSON full precision
        tol = 1e-9 if op["format"] == "csv" else 1e-11
        if not op["steps"] <= len(rows) <= op["steps"] + 2:
            raise OracleError(f"{len(rows)} rows for {op['steps']} steps")
        ts = [float(row["T"]) for row in rows]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise OracleError("T column is not strictly increasing")
        _close(ts[0], op["t_min"], tol, "first T")
        _close(ts[-1], op["t_max"], tol * op["t_max"], "last T")
        landmarks = [1.0] + ([SQRT3] if op["t_max"] >= SQRT3 else [])
        for landmark in landmarks:
            if min(abs(t - landmark) for t in ts) > 1e-11:
                raise OracleError(f"landmark T = {landmark!r} missing")
        for t, row in zip(ts, rows):
            v_minus, v_plus = ctx.pkg.analytic_variances(t)
            _close(float(row["v_minus"]), v_minus, tol, f"v_minus at T={t}")
            _close(float(row["v_plus"]), v_plus, tol, f"v_plus at T={t}")
            _close(float(row["mean_s3"]), ctx.pkg.analytic_mean_s3(t), tol, f"<S3> at T={t}")
        return len(data)

    return (lambda: run_cli(ctx.cli, argv)), check


# ---------------------------------------------------------------------------
# large_spin: coherent state -> rotation -> report -> QFI, plus a NOON report
# ---------------------------------------------------------------------------

LARGE_SPINS = (32, 128, 512)
#: relative tolerance of the coherent/NOON invariants, scaled by s or N
LARGE_SPIN_TOL = 1e-9


def _unit_vector(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def _large_spin_block(rng: random.Random) -> list[dict]:
    sizes = list(LARGE_SPINS)
    rng.shuffle(sizes)
    return [
        {
            "N": n,
            "theta": rng.uniform(0.0, math.pi),
            "phi": rng.uniform(0.0, 2.0 * math.pi),
            "axis": _unit_vector(rng),
            "angle": rng.uniform(0.0, 2.0 * math.pi),
            "noon_phase": rng.uniform(0.0, 2.0 * math.pi),
        }
        for n in sizes
    ]


def _large_spin_prepare(op: dict, ctx: Context):
    pkg = ctx.pkg
    n = op["N"]

    def call():
        space = pkg.build_spin_space(n)
        coherent = pkg.coherent_state(space, op["theta"], op["phi"])
        rotated = pkg.rotate_about(coherent, op["axis"], op["angle"])
        report = pkg.squeezing_report(rotated)
        qfi = pkg.qfi_pure(rotated, report.frame.n1)
        noon = pkg.squeezing_report(pkg.noon_state(n, op["noon_phase"]))
        return report, qfi, noon

    def check(outcome) -> int:
        report, qfi, noon = outcome
        spin, tol = n / 2, LARGE_SPIN_TOL
        # a rotated coherent state stays coherent: |<S>| = s, V- = V+ = s/2
        _close(report.mean.length, spin, tol * spin, "|<S>| of coherent state")
        _close(report.xi2, 1.0, tol * spin, "xi2 of coherent state")
        _close(report.chi2, 1.0, tol * spin, "chi2 of coherent state")
        _close(qfi, float(n), tol * n * spin, "transverse QFI of coherent state")
        _close(noon.chi2, 1.0 / n, tol, "NOON chi2")
        return 0

    return call, check


# ---------------------------------------------------------------------------
# husimi_export: `husimi` on the default grid, PGM 3/4 of ops, CSV 1/4
# ---------------------------------------------------------------------------

HUSIMI_GRID = (181, 360)  # the CLI's default endpoint grid
HUSIMI_NOON_N = (2, 64)
HUSIMI_PROBES = 4  # CSV rows compared against q_value per op


def _husimi_block(rng: random.Random) -> list[dict]:
    kinds = [("csv", "triphoton"), ("csv", "noon")]
    kinds += [("pgm", "triphoton")] * 3 + [("pgm", "noon")] * 3
    rng.shuffle(kinds)
    lo, hi = HUSIMI_NOON_N
    noon_sizes = iter(lo + int(u * (hi - lo + 1)) for u in _stratified(rng, 4))
    n_theta, n_phi = HUSIMI_GRID
    ops = []
    for fmt, family in kinds:
        op = {"format": fmt, "family": family}
        if family == "triphoton":
            op["T"] = rng.uniform(0.0, 2.0)
        else:
            op["N"] = next(noon_sizes)
            op["noon_phase"] = rng.uniform(0.0, 2.0 * math.pi)
        if fmt == "csv":
            op["probes"] = [
                [rng.randrange(n_theta), rng.randrange(n_phi)] for _ in range(HUSIMI_PROBES)
            ]
        ops.append(op)
    return ops


def _husimi_state(op: dict, pkg):
    if op["family"] == "triphoton":
        return pkg.triphoton_state(op["T"])
    return pkg.noon_state(op["N"], op["noon_phase"])


def _husimi_prepare(op: dict, ctx: Context):
    path = ctx.workdir / f"husimi.{op['format']}"
    path.unlink(missing_ok=True)
    if op["family"] == "triphoton":
        state_args = ["--T", repr(op["T"])]
    else:
        state_args = ["--N", str(op["N"]), "--noon-phase", repr(op["noon_phase"])]
    argv = ["husimi", *state_args, "--format", op["format"], "--output", str(path)]
    n_theta, n_phi = HUSIMI_GRID

    def check_pgm(data: bytes) -> None:
        header = f"P5\n{n_phi} {n_theta}\n255\n".encode("ascii")
        if not data.startswith(header):
            raise OracleError(f"PGM header {data[:20]!r} does not match the grid")
        if len(data) != len(header) + n_theta * n_phi:
            raise OracleError(f"PGM holds {len(data)} bytes")
        if max(data[len(header):]) != 255:
            raise OracleError("PGM is not scaled to its peak")

    def check_csv(data: bytes) -> None:
        lines = data.split(b"\n")
        if lines[0] != b"theta,phi,p,Q" or len(lines) != n_theta * n_phi + 2 or lines[-1]:
            raise OracleError(f"CSV has {len(lines) - 2} rows or a wrong header")
        state = _husimi_state(op, ctx.pkg)
        for i, j in op["probes"]:
            theta, phi = i * math.pi / (n_theta - 1), j * 2.0 * math.pi / n_phi
            row = [float(x) for x in lines[1 + i * n_phi + j].split(b",")]
            _close(row[0], theta, 1e-11, f"theta in row ({i},{j})")
            _close(row[1], phi, 1e-11, f"phi in row ({i},{j})")
            _close(row[2], math.cos(theta), 1e-11, f"p in row ({i},{j})")
            _close(row[3], ctx.pkg.q_value(state, theta, phi), 1e-10, f"Q in row ({i},{j})")

    def check(_outcome) -> int:
        data = path.read_bytes()
        (check_csv if op["format"] == "csv" else check_pgm)(data)
        return len(data)

    return (lambda: run_cli(ctx.cli, argv)), check


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[dict]]
    prepare: Callable[[dict, Context], tuple[Callable, Callable]]
    #: fixed ops run once before timing, one of each kind, to fill caches
    warm: tuple[dict, ...]
    #: reference kernel (see reference.py) that gauges machine speed
    reference: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "triphoton_sweep",
            _sweep_block,
            _sweep_prepare,
            warm=tuple(
                {"t_min": 0.0, "t_max": 1.8, "steps": 101, "format": fmt}
                for fmt in ("csv", "json")
            ),
            reference="small_arrays",
        ),
        Workload(
            "large_spin",
            _large_spin_block,
            _large_spin_prepare,
            warm=tuple(
                {"N": n, "theta": 1.0, "phi": 0.5, "axis": [0.6, 0.0, 0.8],
                 "angle": 0.7, "noon_phase": 0.3}
                for n in LARGE_SPINS
            ),
            reference="grid",
        ),
        Workload(
            "husimi_export",
            _husimi_block,
            _husimi_prepare,
            warm=(
                {"format": "csv", "family": "triphoton", "T": 1.0, "probes": [[90, 90]]},
                {"format": "pgm", "family": "noon", "N": 8, "noon_phase": 0.3},
            ),
            reference="grid",
        ),
    )
}


def block_stream(workload: Workload, seed: int):
    """The endless, seed-determined sequence of op blocks of a workload."""
    rng = random.Random(seed)
    while True:
        yield workload.block(rng)
