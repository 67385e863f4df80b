"""Command-line front end: sweeps, single-state reports, Husimi grids, NOON
metrics, and the self-verification suite.

Output files are byte-identical across runs for identical invocations; CSV
renders real numbers with 12 significant digits and an unbounded zeta^2 as an
empty field.  The husimi CSV is written in blocks of at most
`HUSIMI_CSV_CELLS` lines through one buffer of NUL-padded uint32 words per
map (theta, phi and p as `_fmt` texts rendered once per grid, Q by
`_g12.g12_words` exactly as `%.12g`, then a newline), whose NULs one
`translate` per block removes.  A failed write, of any output file, removes
the file.  The grid is bounded by `husimi.MAX_GRID_ENTRIES`.  Every float
argument must be finite.  Sweeps run serially, with at most
`MAX_SWEEP_STEPS` samples, and are written `SWEEP_CHUNK_ROWS` rows at a
time.

A sweep file is rendered by column, one `%` template per row, from the
typed columns `sweep_records` gives per chunk.  A float array takes the
float spec of its format: `%.12g` in CSV (what `_fmt` and `format(x,
".12g")` give) and `%r` in JSON (`float.__repr__`, what `json` writes).  A
list (zeta2_unbounded, or a column holding None) is rendered to text cell by
cell: None is "" in CSV and `null` in JSON, a bool is `true` or `false`, a
float takes the float spec.  So the bytes are those of `_fmt` on every CSV cell and of
`json.dumps(payload, indent=2)`, whose `meta` block is still rendered by
`json`.  A non-finite value is an error, never a `nan` cell.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from ._g12 import G12_WORDS, g12_words
from .elements import vpp_success_probabilities
from .husimi import SphereGrid, q_grid
from .spin_core import CACHED_SIZES, SpinSpace
from .squeezing import SqueezingReport, decibels, squeezing_columns, squeezing_report
from .states import (
    TRIPHOTON_SPACE, noon_state, triphoton_amplitudes, triphoton_rows_from_amplitudes,
    triphoton_seed, triphoton_state,
)
from .verify import CHECKS, run_checks

#: sweep columns, in CSV and JSON order; sweep_records builds rows in this order
SWEEP_FIELDS = (
    "T", "c2", "c3", "mean_s1", "mean_s2", "mean_s3", "v_minus", "v_plus", "xi2", "chi2",
    "zeta2", "zeta2_unbounded", "xi2_db", "chi2_db", "vpp_success_probability",
)

#: exact samples guaranteed to appear in every sweep that covers them
SWEEP_LANDMARKS = (1.0, math.sqrt(3.0))

#: most `sweep --steps` accepted, checked before any sample is made
MAX_SWEEP_STEPS = 2**16

#: most sweep rows computed and rendered before they are written, so a
#: sweep's memory does not grow with --steps; every sweep of at most this
#: many samples is one chunk
SWEEP_CHUNK_ROWS = 2**12

#: most husimi CSV lines rendered into one block before it is written; a
#: theta row with more phi samples is written in parts of this many cells.
#: A block of 2^12 lines (about 320 kB) stays in cache from its fill to its
#: NUL removal; 2^14 lines took about a fifth longer per CSV
HUSIMI_CSV_CELLS = 2**12
_NEWLINE_WORD = np.frombuffer(b"\n\0\0\0", dtype="<u4")[0]

#: per sweep format: the `%` spec of a float cell, and the text of None and bools
_SWEEP_CELLS = {
    "csv": ("%.12g", {None: "", True: "true", False: "false"}),
    "json": ("%r", {None: "null", True: "true", False: "false"}),
}


def _fmt(value) -> str:
    """Render a scalar for CSV: 12 significant digits, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(float(value), ".12g")


def _check_finite(args) -> None:
    """Reject nan and inf in every float argument before any work is done."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")


def sweep_samples(t_min: float, t_max: float, steps: int) -> list[float]:
    """Uniform inclusive grid plus the exact landmark values inside the range."""
    if steps < 2:
        raise ValueError(f"sweep needs at least 2 steps, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ValueError(
            f"sweep of {steps} steps is above the bound MAX_SWEEP_STEPS = {MAX_SWEEP_STEPS}"
        )
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"sweep bounds must be finite, got [{t_min}, {t_max}]")
    if t_min < 0 or not t_min < t_max:
        raise ValueError(f"invalid sweep range [{t_min}, {t_max}]")
    samples = np.linspace(t_min, t_max, steps).tolist()
    for landmark in SWEEP_LANDMARKS:
        if t_min <= landmark <= t_max and landmark not in samples:
            samples.append(landmark)
    return sorted(samples)


def sweep_records(samples) -> tuple:
    """Sweep columns in SWEEP_FIELDS order: the triphoton report at each ratio T.

    (c2, c3) is computed once per ratio.  All reports come from one stacked
    `squeezing_columns` call and all VPP probabilities from one stacked
    `vpp_success_probabilities` call.  A column of floats is a float array;
    a column that can hold None or bools is a list.
    """
    amplitudes = [triphoton_amplitudes(t_ratio) for t_ratio in samples]
    (comps, _, _), _, _, (v_minus, v_plus, xi2, zeta2, unbounded, chi2, _) = squeezing_columns(
        TRIPHOTON_SPACE, triphoton_rows_from_amplitudes(amplitudes)
    )
    probabilities = vpp_success_probabilities(triphoton_seed(), samples)
    return (
        np.array(samples, dtype=float), *np.array(amplitudes).reshape(-1, 2).T, *comps.T,
        v_minus, v_plus, xi2, chi2, _nullable(zeta2), unbounded.tolist(),
        _nullable([decibels(x) for x in xi2.tolist()]),
        _nullable([decibels(x) for x in chi2.tolist()]),
        np.array(probabilities, dtype=float),
    )


def _nullable(values: list):
    """A list of floats and None as a float array if it holds no None."""
    return values if None in values else np.array(values, dtype=float)


def _sweep_column(field: str, column, fmt: str) -> tuple[str, list]:
    """The `%` spec and the cells of one sweep column in format `fmt`: a float
    array takes the float spec, a list is rendered cell by cell."""
    float_spec, names = _SWEEP_CELLS[fmt]
    if isinstance(column, np.ndarray):
        # tolist gives plain floats, whose %r is float.__repr__ (np.float64's is not)
        spec, cells, finite = float_spec, column.tolist(), np.isfinite(column).all()
    else:
        numbers = [v for v in column if v is not None and not isinstance(v, bool)]
        finite = all(map(math.isfinite, numbers))
        spec, cells = "%s", [
            names[v] if v is None or isinstance(v, bool) else float_spec % float(v)
            for v in column
        ]
    if not finite:
        raise ArithmeticError(f"sweep column {field} holds a non-finite value")
    return spec, cells


def _sweep_rows_text(columns: tuple, fmt: str) -> str:
    """The sweep rows of `sweep_records` columns through one `%` template: CSV
    lines, or JSON records, joined by their separator with none after the
    last."""
    specs, cells = zip(*(
        _sweep_column(field, column, fmt)
        for field, column in zip(SWEEP_FIELDS, columns, strict=True)
    ))
    cells = zip(*cells)
    if fmt == "csv":
        return "\n".join(map(",".join(specs).__mod__, cells))
    # the layout of json.dumps(payload, indent=2): one record per template,
    # fields in SWEEP_FIELDS order
    items = ",\n".join(
        f"      {json.dumps(field)}: {spec}" for field, spec in zip(SWEEP_FIELDS, specs)
    )
    return ",\n".join(map(f"    {{\n{items}\n    }}".__mod__, cells))


def _sweep_parts(samples: list, fmt: str, meta: dict):
    """The sweep file in parts: the CSV field line or the JSON `meta` block
    with the first SWEEP_CHUNK_ROWS rows, each further chunk of rows after
    its separator, then the end of the file."""
    if fmt == "csv":
        head, separator, tail = ",".join(SWEEP_FIELDS) + "\n", "\n", "\n"
    else:
        meta_text = json.dumps(meta, indent=2).replace("\n", "\n  ")
        head = f'{{\n  "meta": {meta_text},\n  "records": [\n'
        separator, tail = ",\n", "\n  ]\n}\n"
    for start in range(0, len(samples), SWEEP_CHUNK_ROWS):
        columns = sweep_records(samples[start : start + SWEEP_CHUNK_ROWS])
        yield (separator if start else head) + _sweep_rows_text(columns, fmt)
    yield tail


def report_to_dict(report: SqueezingReport) -> dict:
    return {
        "mean": [float(x) for x in report.mean.components],
        "mean_length": report.mean.length,
        "transverse_radius": report.mean.transverse_radius,
        "frame": {
            "theta": report.frame.theta,
            "phi": report.frame.phi,
            "degenerate": report.frame.degenerate,
            "n1": [float(x) for x in report.frame.n1],
            "n2": [float(x) for x in report.frame.n2],
            "n3": [float(x) for x in report.frame.n3],
        },
        "ellipse": {
            "A": report.ellipse.A,
            "B": report.ellipse.B,
            "C": report.ellipse.C,
            "gamma_opt": report.ellipse.gamma_opt,
            "isotropic": report.ellipse.isotropic,
        },
        "v_minus": report.v_minus,
        "v_plus": report.v_plus,
        "xi2": report.xi2,
        "xi2_db": decibels(report.xi2),
        "zeta2": report.zeta2,
        "zeta2_unbounded": report.zeta2_unbounded,
        "chi2": report.chi2,
        "chi2_db": decibels(report.chi2),
        "qfi": report.qfi,
        "snl": report.snl,
    }


def _report_lines(fields: dict) -> list[str]:
    """Text lines of a report, rendered from its `report_to_dict` fields."""

    def pairs(block: dict, names) -> str:
        return ", ".join(f"{name} = {_fmt(block[name])}" for name in names)

    frame, ellipse = fields["frame"], fields["ellipse"]
    lines = [
        f"mean <S>   = ({', '.join(map(_fmt, fields['mean']))})"
        f"   |<S>| = {_fmt(fields['mean_length'])}",
        f"frame      {pairs(frame, ('theta', 'phi', 'degenerate'))}",
        f"ellipse    {pairs(ellipse, ellipse)}",
    ]
    for name in ("v_minus", "v_plus", "xi2", "zeta2", "chi2", "qfi", "snl"):
        text = "unbounded" if fields.get(f"{name}_unbounded") else _fmt(fields[name])
        if fields.get(f"{name}_db") is not None:
            text += f" ({_fmt(fields[f'{name}_db'])} dB)"
        lines.append(f"{name:<10} = {text}")
    return lines


def _meta(command: str, parameters: dict, space: SpinSpace) -> dict:
    """The `meta` block that opens every JSON output."""
    return {"command": command, "parameters": parameters, "spin": space.spin, "dimension": space.dimension}


@contextlib.contextmanager
def _output(path: str, mode: str = "wb", **kwargs):
    """The file `path` opened for writing, removed again if the writing
    fails: a failed command leaves no partial output."""
    handle = open(path, mode, **kwargs)
    try:
        with handle:
            yield handle
    except BaseException:
        os.remove(path)
        raise


def cmd_sweep(args) -> int:
    samples = sweep_samples(args.t_min, args.t_max, args.steps)
    parameters = {"t_min": args.t_min, "t_max": args.t_max, "steps": args.steps}
    parts = _sweep_parts(samples, args.format, _meta("sweep", parameters, TRIPHOTON_SPACE))
    # the first chunk is made before the file is opened, and a later chunk
    # that fails removes it: a failed sweep leaves no partial output
    first = next(parts)
    with _output(args.output, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(first)
        handle.writelines(parts)
    return 0


def _print_report(args, parameters, state, title, text_lines=(), json_fields=None):
    """Print the squeezing report of `state` as JSON or text.

    The text form is `title`, the spin line, `text_lines` and the report lines;
    the JSON form is the meta block, `json_fields` and the report.
    """
    space, fields = state.space, report_to_dict(squeezing_report(state))
    if args.format == "json":
        payload = {
            "meta": _meta(args.command, parameters, space),
            **(json_fields or {}),
            "report": fields,
        }
        print(json.dumps(payload, indent=2))
    else:
        lines = [title, f"spin s = {_fmt(space.spin)}, dimension {space.dimension}"]
        lines.extend(text_lines)
        lines.extend(_report_lines(fields))
        print("\n".join(lines))
    return 0


def cmd_state(args) -> int:
    state = triphoton_state(args.T)
    space = state.space
    c2, c3 = triphoton_amplitudes(args.T)
    amplitudes = [
        {
            "label": space.basis_label(k),
            "n": float(space.n_values[k]),
            "re": float(state.amplitudes[k].real),
            "im": float(state.amplitudes[k].imag),
        }
        for k in range(space.dimension)
    ]
    text_lines = ["amplitudes:"]
    for amp in amplitudes:
        sign = "+" if amp["im"] >= 0 else "-"
        text_lines.append(
            f"  {amp['label']}  (n = {_fmt(amp['n'])}): "
            f"{_fmt(amp['re'])} {sign} {_fmt(abs(amp['im']))}i"
        )
    text_lines += [f"c2 = {_fmt(c2)}", f"c3 = {_fmt(c3)}"]
    title = f"triphoton state at T = {_fmt(args.T)}"
    json_fields = {"amplitudes": amplitudes, "c2": c2, "c3": c3}
    return _print_report(args, {"T": args.T}, state, title, text_lines, json_fields)


def cmd_noon(args) -> int:
    state = noon_state(args.N, args.noon_phase)
    title = f"NOON state with N = {args.N}, phase = {_fmt(args.noon_phase)}"
    return _print_report(args, {"N": args.N, "noon_phase": args.noon_phase}, state, title)


def _husimi_state(args):
    if (args.T is None) == (args.N is None):
        raise ValueError("choose a state with either --T (triphoton) or --N (NOON)")
    if args.T is not None:
        if args.noon_phase is not None:
            raise ValueError("--noon-phase applies to a NOON state (--N), not to --T")
        return triphoton_state(args.T)
    return noon_state(args.N, 0.0 if args.noon_phase is None else args.noon_phase)


def _text_words(texts) -> np.ndarray:
    """Each text and a comma, NUL-padded to whole little-endian uint32 words:
    one read-only row of words per text."""
    cells = np.array([text + "," for text in texts], dtype="S")
    words = -(-cells.itemsize // 4)
    rows = cells.astype(f"S{4 * words}").view("<u4").reshape(len(texts), words)
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=CACHED_SIZES)
def _grid_words(n_theta: int, n_phi: int, scheme: str) -> tuple:
    """`_text_words` of a grid's theta, p and phi texts, made once per grid size."""
    grid = SphereGrid(n_theta, n_phi, scheme=scheme)
    thetas = grid.thetas.tolist()
    return (
        _text_words([_fmt(theta) for theta in thetas]),
        _text_words([_fmt(math.cos(theta)) for theta in thetas]),
        _text_words([_fmt(phi) for phi in grid.phis.tolist()]),
    )


def _write_husimi_csv(path: str, grid: SphereGrid, values: np.ndarray) -> None:
    """Write the husimi CSV in blocks of at most HUSIMI_CSV_CELLS lines.

    A block is whole theta rows, or one part of a row longer than that.  All
    blocks fill one NUL-padded word buffer: theta, phi and p words from
    `_grid_words`, Q from `g12_words`, then a newline.  The newline and phi
    words are written once (the phi words once per block where a row has
    several parts), so a block writes its theta, p and Q words, and
    `translate` reads the buffer in place.
    """
    n_theta, n_phi = values.shape
    rows, cols = max(1, HUSIMI_CSV_CELLS // n_phi), min(n_phi, HUSIMI_CSV_CELLS)
    theta_words, p_words, phi_words = _grid_words(n_theta, n_phi, grid.scheme)
    ends = np.cumsum([theta_words.shape[1], phi_words.shape[1], p_words.shape[1], G12_WORDS])
    width = int(ends[-1]) + 1
    buffer = bytearray(4 * min(rows, n_theta) * cols * width)
    lines = np.frombuffer(buffer, dtype="<u4").reshape(-1, width)
    lines[:, -1] = _NEWLINE_WORD
    with _output(path) as handle:
        handle.write(b"theta,phi,p,Q\n")
        for r0 in range(0, n_theta, rows):
            for c0 in range(0, n_phi, cols):
                block = values[r0 : r0 + rows, c0 : c0 + cols]
                n, m = block.shape
                size = 4 * n * m * width  # the block's bytes at the start of the buffer
                cells = lines[: n * m].reshape(n, m, width)
                if r0 == 0 or n_phi > cols:  # the first block, or every part of a row
                    cells[:, :, ends[0] : ends[1]] = phi_words[c0 : c0 + m]
                cells[:, :, : ends[0]] = theta_words[r0 : r0 + n, None]
                cells[:, :, ends[1] : ends[2]] = p_words[r0 : r0 + n, None]
                g12_words(block.ravel(), lines[: n * m, ends[2] : ends[3]])
                text = buffer if size == len(buffer) else buffer[:size]
                handle.write(text.translate(None, b"\0"))


def cmd_husimi(args) -> int:
    state = _husimi_state(args)
    grid = SphereGrid(args.n_theta, args.n_phi, scheme=args.scheme)
    result = q_grid(state, grid)
    if args.format == "csv":
        _write_husimi_csv(args.output, grid, result.values)
    else:
        # one float buffer for the scaling: x / 1.0 is x, so an all-zero map
        # keeps its values
        peak = result.values.max()
        scaled = np.divide(result.values, peak if peak > 0 else 1.0)
        np.multiply(scaled, 255.0, out=scaled)
        pixels = np.rint(scaled, out=scaled).astype(np.uint8)
        header = f"P5\n{grid.n_phi} {grid.n_theta}\n255\n".encode("ascii")
        with _output(args.output) as handle:
            handle.write(header)
            handle.write(pixels.tobytes())
    return 0


def cmd_verify(args) -> int:
    results = run_checks(ladder_perturbation=args.perturb_ladder)
    width = max(len(check.name) for check in CHECKS)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name.ljust(width)}  {result.detail}")
    failed = sum(1 for result in results if not result.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-squeeze",
        description="Polarization squeezing, entanglement metrics, and Husimi "
        "maps of N-photon two-mode states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep the triphoton family over T")
    sweep.add_argument("--t-min", type=float, default=0.0)
    sweep.add_argument("--t-max", type=float, default=1.8)
    sweep.add_argument("--steps", type=int, default=181)
    sweep.add_argument("--output", required=True)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    state = sub.add_parser("state", help="report one triphoton state")
    state.add_argument("--T", type=float, required=True)
    state.add_argument("--format", choices=("text", "json"), default="text")

    husimi = sub.add_parser("husimi", help="evaluate the Husimi Q distribution")
    husimi.add_argument("--T", type=float, default=None)
    husimi.add_argument("--N", type=int, default=None)
    husimi.add_argument("--noon-phase", type=float, default=None)
    husimi.add_argument("--n-theta", type=int, default=181)
    husimi.add_argument("--n-phi", type=int, default=360)
    husimi.add_argument("--scheme", choices=("endpoint", "midpoint"), default="endpoint")
    husimi.add_argument("--output", required=True)
    husimi.add_argument("--format", choices=("csv", "pgm"), default="csv")

    noon = sub.add_parser("noon", help="report an N-photon NOON state")
    noon.add_argument("--N", type=int, required=True)
    noon.add_argument("--noon-phase", type=float, default=0.0)
    noon.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("--perturb-ladder", type=float, default=0.0, help=argparse.SUPPRESS)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in the process, built on first use.

    `parse_args` keeps no state in it: each call starts a fresh namespace
    from the declared defaults, and a rejected call only raises SystemExit.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on every call, so a rebound cmd_* (a test's monkeypatch, a
    # profiler's wrapper) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        _check_finite(args)
        return command(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
