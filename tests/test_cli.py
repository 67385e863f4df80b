import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stokes_squeeze import cli, spin_core, verify
from stokes_squeeze.cli import SWEEP_FIELDS, _fmt, main, sweep_samples
from stokes_squeeze.elements import vpp_success_probability
from stokes_squeeze.husimi import QGrid, q_grid
from stokes_squeeze.squeezing import decibels, squeezing_report
from stokes_squeeze.states import (
    TRIPHOTON_SPACE, triphoton_amplitudes, triphoton_seed, triphoton_state,
)

SQRT3 = math.sqrt(3.0)

STATE_T1_TEXT = """\
triphoton state at T = 1
spin s = 1.5, dimension 4
amplitudes:
  |3,0>_HV  (n = 1.5): 0.612372435696 + 0i
  |2,1>_HV  (n = 0.5): 0 + 0.353553390593i
  |1,2>_HV  (n = -0.5): -0.353553390593 + 0i
  |0,3>_HV  (n = -1.5): 0 - 0.612372435696i
c2 = 0.353553390593
c3 = 0.612372435696
mean <S>   = (0, 0, 1)   |<S>| = 1
frame      theta = 1.57079632679, phi = 1.57079632679, degenerate = false
ellipse    A = -1.5, B = 0, C = 2, gamma_opt = 3.14159265359, isotropic = false
v_minus    = 0.25
v_plus     = 1.75
xi2        = 0.333333333333 (-4.7712125472 dB)
zeta2      = 0.75
chi2       = 0.428571428571 (-3.67976785295 dB)
qfi        = 7
snl        = 0.75
"""

NOON3_TEXT = """\
NOON state with N = 3, phase = -1.57079632679
spin s = 1.5, dimension 4
mean <S>   = (0, 0, 0)   |<S>| = 0
frame      theta = 1.57079632679, phi = 1.57079632679, degenerate = true
ellipse    A = -1.5, B = 0, C = 3, gamma_opt = 3.14159265359, isotropic = false
v_minus    = 0.75
v_plus     = 2.25
xi2        = 1 (0 dB)
zeta2      = unbounded
chi2       = 0.333333333333 (-4.7712125472 dB)
qfi        = 9
snl        = 0.75
"""


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


#: husimi states of the byte-identity tests: triphoton T and NOON N
HUSIMI_STATES = [
    ["--T", "0"], ["--T", "1"], ["--T", repr(SQRT3)], ["--T", "7.25"],
    ["--N", "1"], ["--N", "2"], ["--N", "64"],
]


def _digit_ties() -> list[float]:
    """Floats k 2^-s (k odd) whose exact decimal value has 13 significant
    digits, so its last digit 5 is an exact tie of `%.12g`'s rounding: both
    parities of the 12th digit, values from about 1e-11 to 10."""
    ties = []
    for s in range(12, 24):
        low = -(-10**12 // 5**s)
        for k in range(low | 1, low + 40, 2):
            if len(str(k * 5**s)) == 13:
                ties.append(k * 2.0**-s)
    return ties


_DIGIT_TIES = _digit_ties()

def _husimi_csv(tmp_path, monkeypatch, state_args, shape, scheme):
    """Run `husimi` to CSV; return the file's bytes and the QGrid it was written from."""
    evaluate, evaluated = cli.q_grid, []

    def capture(state, grid):
        evaluated.append(evaluate(state, grid))
        return evaluated[-1]

    out = tmp_path / "q.csv"
    argv = ["husimi", *state_args, "--n-theta", str(shape[0]), "--n-phi", str(shape[1]),
            "--scheme", scheme, "--output", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "q_grid", capture)
        assert main(argv) == 0
    return out.read_bytes(), evaluated[0]


def _per_cell_csv(result):
    """The husimi CSV as the per-cell writer rendered it: `_fmt` on every cell."""
    lines = ["theta,phi,p,Q"]
    for theta, row in zip(result.grid.thetas, result.values):
        for phi, q in zip(result.grid.phis, row.tolist()):
            lines.append(f"{_fmt(theta)},{_fmt(phi)},{_fmt(math.cos(theta))},{_fmt(q)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _per_row_records(samples):
    """Sweep records built one state and one report per T, keyed by SWEEP_FIELDS."""
    records = []
    for t_ratio in samples:
        report = squeezing_report(triphoton_state(t_ratio))
        values = (
            t_ratio, *triphoton_amplitudes(t_ratio), *report.mean.components,
            report.v_minus, report.v_plus, report.xi2, report.chi2, report.zeta2,
            report.zeta2_unbounded, decibels(report.xi2), decibels(report.chi2),
            vpp_success_probability(triphoton_seed(), t_ratio),
        )
        records.append(dict(zip(SWEEP_FIELDS, values, strict=True)))
    return records


def _per_cell_sweep(records, fmt, t_min, t_max, steps):
    """The sweep file as the per-cell writers rendered it: `_fmt` on every CSV
    cell, `json.dumps(indent=2)` of the whole JSON payload."""
    if fmt == "csv":
        lines = [",".join(SWEEP_FIELDS)]
        lines.extend(",".join(_fmt(value) for value in record.values()) for record in records)
        return ("\n".join(lines) + "\n").encode("utf-8")
    meta = {
        "command": "sweep",
        "parameters": {"t_min": t_min, "t_max": t_max, "steps": steps},
        "spin": TRIPHOTON_SPACE.spin,
        "dimension": TRIPHOTON_SPACE.dimension,
    }
    return (json.dumps({"meta": meta, "records": records}, indent=2) + "\n").encode("utf-8")


def _sweep_file(tmp_path, fmt, t_min=None, t_max=None, steps=None):
    """Run `sweep` (defaults where an argument is None); return the file's bytes."""
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--format", fmt, "--output", str(out)]
    for flag, value in (("--t-min", t_min), ("--t-max", t_max), ("--steps", steps)):
        if value is not None:
            argv += [flag, repr(value)]
    assert main(argv) == 0
    return out.read_bytes()


#: (t_min, t_max, steps) of the writer oracle tests; None keeps the default.
#: T = -0.0 is accepted, renders as "-0" and "-0.0" and has the T = 0 weights
SWEEP_RANGES = [
    (None, None, None), (0.0, 3.0, 400), (1.0, 1.001, 50), (0.0, 1.8, 2), (0.0, 2.5, 2001),
    (-0.0, 1.0, 5),
]


class TestSweepWriters:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bounds", SWEEP_RANGES, ids=str)
    def test_matches_per_cell_writers(self, tmp_path, fmt, bounds):
        t_min, t_max, steps = (
            given if given is not None else default
            for given, default in zip(bounds, (0.0, 1.8, 181))
        )
        records = _per_row_records(sweep_samples(t_min, t_max, steps))
        blob = _sweep_file(tmp_path, fmt, *bounds)
        assert blob == _per_cell_sweep(records, fmt, t_min, t_max, steps)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", ["float", "mixed"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_value_fails_loudly(self, tmp_path, capsys, monkeypatch, fmt, column, bad):
        # a float column (every cell a float) and one that also holds None
        values = [bad] if column == "float" else [None, 1.0, bad]
        cells = iter(values * 1000)
        monkeypatch.setattr(cli, "decibels", lambda value: next(cells))
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--steps", "5", "--format", fmt, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: sweep column xi2_db holds a non-finite value\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunked_sweep_matches_one_chunk(self, tmp_path, monkeypatch, fmt):
        # 60 steps and both landmarks in chunks of 7 rows; zeta2 is unbounded
        # (None) in one of them only
        argv = ["sweep", "--t-max", "2.5", "--steps", "60", "--format", fmt, "--output"]
        assert main([*argv, str(tmp_path / "one")]) == 0
        records, chunks = cli.sweep_records, []

        def spy(samples):
            chunks.append(len(samples))
            return records(samples)

        monkeypatch.setattr(cli, "sweep_records", spy)
        monkeypatch.setattr(cli, "SWEEP_CHUNK_ROWS", 7)
        assert main([*argv, str(tmp_path / "chunked")]) == 0
        assert chunks == [7] * 8 + [6]
        assert (tmp_path / "chunked").read_bytes() == (tmp_path / "one").read_bytes()

    def test_non_finite_value_in_a_later_chunk_removes_the_file(
        self, tmp_path, capsys, monkeypatch
    ):
        # decibels runs twice per row: the first chunk of 7 rows is finite
        cells = iter([1.0] * 14 + [math.nan] * 1000)
        monkeypatch.setattr(cli, "decibels", lambda value: next(cells))
        monkeypatch.setattr(cli, "SWEEP_CHUNK_ROWS", 7)
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--steps", "20", "--format", "json", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: sweep column xi2_db holds a non-finite value\n"
        assert not out.exists()

    #: growth of the peak RSS from a 5-step to a MAX_SWEEP_STEPS JSON sweep;
    #: rendering the whole file at once grew it by about 200 MB
    SWEEP_RSS_GROWTH_MB = 40

    def test_largest_sweep_memory_is_bounded(self, tmp_path):
        # VmHWM is the peak of the child's own address space (see the report
        # loop RSS test of test_spin_core); tracemalloc would slow this
        # sweep about eightfold
        script = (
            "import sys\n"
            "from stokes_squeeze.cli import MAX_SWEEP_STEPS, main\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
            "argv = ['sweep', '--format', 'json', '--output', sys.argv[1], '--steps']\n"
            "assert main([*argv, '5']) == 0\n"
            "before = peak()\n"
            "assert main([*argv, str(MAX_SWEEP_STEPS)]) == 0\n"
            "print(peak() - before)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "sweep.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert int(proc.stdout) / 1024 < self.SWEEP_RSS_GROWTH_MB  # VmHWM is in kB
        assert out.stat().st_size > 34 * 10**6

    def test_steps_bound_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the steps bound was checked")

        monkeypatch.setattr(cli.np, "linspace", forbidden)
        monkeypatch.setattr(cli, "sweep_records", forbidden)
        steps = cli.MAX_SWEEP_STEPS + 1
        with pytest.raises(ValueError, match=f"MAX_SWEEP_STEPS = {cli.MAX_SWEEP_STEPS}"):
            sweep_samples(0.0, 1.0, steps)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--steps", str(steps), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: sweep of {steps} steps is above the bound "
            f"MAX_SWEEP_STEPS = {cli.MAX_SWEEP_STEPS}\n"
        )
        assert not out.exists()

    def test_landmark_rows_covered(self):
        # T = 0, 1 and sqrt(3) appear, and zeta2 is unbounded (None) at sqrt(3) only
        records = _per_row_records(sweep_samples(0.0, 3.0, 400))
        by_t = {record["T"]: record for record in records}
        assert {0.0, 1.0, SQRT3} <= by_t.keys()
        assert by_t[SQRT3]["zeta2"] is None and by_t[SQRT3]["zeta2_unbounded"] is True
        assert [r["T"] for r in records if r["zeta2"] is None] == [SQRT3]


class TestSweep:
    def test_csv_schema_and_landmarks(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--t-min", "0", "--t-max", "1.8", "--steps", "181",
                     "--output", str(out)]) == 0
        header, rows = _rows(out.read_text())
        assert header == list(SWEEP_FIELDS)

        unit = [r for r in rows if r["T"] == "1"]
        assert len(unit) == 1
        assert float(unit[0]["xi2"]) == pytest.approx(1 / 3, abs=1e-10)
        assert unit[0]["xi2_db"] == "-4.7712125472"
        assert float(unit[0]["chi2"]) == pytest.approx(3 / 7, abs=1e-10)
        assert float(unit[0]["vpp_success_probability"]) == pytest.approx(1.0)

        # the 12-significant-digit rendering reparses ~1e-12 away from sqrt(3)
        noon = [r for r in rows if abs(float(r["T"]) - SQRT3) < 1e-11]
        assert len(noon) == 1
        assert float(noon[0]["chi2"]) == pytest.approx(1 / 3, abs=1e-10)
        assert noon[0]["zeta2"] == ""  # unbounded renders as an empty field
        assert noon[0]["zeta2_unbounded"] == "true"

    def test_deterministic_output(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--steps", "50", "--output"]
        assert main(argv + [str(first)]) == 0
        assert main(argv + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_schema(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--steps", "10", "--format", "json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["command"] == "sweep"
        assert payload["meta"]["spin"] == 1.5
        assert payload["meta"]["dimension"] == 4
        assert payload["meta"]["parameters"]["steps"] == 10
        assert len(payload["records"]) >= 10
        record = payload["records"][0]
        assert list(record.keys()) == list(SWEEP_FIELDS)
        noon = [r for r in payload["records"] if abs(r["T"] - SQRT3) < 1e-12]
        assert noon and noon[0]["zeta2"] is None and noon[0]["zeta2_unbounded"]

    def test_invalid_ranges_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["sweep", "--t-min", "0", "--t-max", "0", "--output", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["sweep", "--t-min", "-1", "--t-max", "1", "--output", out]) == 1
        assert main(["sweep", "--steps", "1", "--output", out]) == 1

    def test_unwritable_path_rejected(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["sweep", "--steps", "5", "--output", str(missing)]) == 1

    def test_sample_builder(self):
        samples = sweep_samples(0.0, 1.8, 10)
        assert 1.0 in samples and SQRT3 in samples
        assert samples == sorted(samples)
        assert samples[0] == 0.0 and samples[-1] == 1.8
        narrow = sweep_samples(0.0, 0.5, 5)
        assert 1.0 not in narrow and len(narrow) == 5
        for bounds in ((0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                sweep_samples(*bounds, 5)


class TestLargeRatios:
    """Beyond T = 2^256, where T**4 overflows, `state` and `sweep` report the
    T -> infinity limit of the family, with no warning."""

    LIMIT_C2, LIMIT_C3 = -1.0 / (2.0 * math.sqrt(2.0)), math.sqrt(1.5) / 2.0

    def test_state(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["state", "--T", "1e80", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["c2"] == pytest.approx(self.LIMIT_C2, rel=1e-15)
        assert payload["c3"] == pytest.approx(self.LIMIT_C3, rel=1e-15)
        assert payload["report"]["mean"] == pytest.approx([0.0, 0.0, -0.5], abs=1e-15)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep(self, tmp_path, capsys, fmt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blob = _sweep_file(tmp_path, fmt, 0.0, 1e200, 3)
        assert capsys.readouterr() == ("", "")
        assert b"nan" not in blob.lower() and b"inf" not in blob.lower()
        if fmt == "json":
            records = json.loads(blob)["records"]
            assert [r["T"] for r in records] == [0.0, 1.0, SQRT3, 5e199, 1e200]
            for record in records[-2:]:
                assert record["c2"] == pytest.approx(self.LIMIT_C2, rel=1e-15)
                assert record["c3"] == pytest.approx(self.LIMIT_C3, rel=1e-15)


class TestState:
    def test_noon_point_amplitudes(self, capsys):
        assert main(["state", "--T", repr(SQRT3)]) == 0
        text = capsys.readouterr().out
        assert "|3,0>_HV" in text and "|0,3>_HV" in text
        c2 = float(text.split("c2 = ")[1].split("\n")[0])
        c3 = float(text.split("c3 = ")[1].split("\n")[0])
        assert abs(c2) < 1e-15
        assert c3 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert "zeta2      = unbounded" in text

    def test_coherent_point_report(self, capsys):
        assert main(["state", "--T", "0"]) == 0
        text = capsys.readouterr().out
        for name in ("xi2", "zeta2", "chi2"):
            value = float(text.split(f"{name}")[1].split("=")[1].split()[0])
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_equal_population_point(self, capsys):
        t_equal = 3 ** 0.25 * (2 - SQRT3) ** 0.5
        assert main(["state", "--T", repr(t_equal)]) == 0
        text = capsys.readouterr().out
        c2 = float(text.split("c2 = ")[1].split("\n")[0])
        c3 = float(text.split("c3 = ")[1].split("\n")[0])
        assert c2 == pytest.approx(0.5, abs=1e-6)
        assert c3 == pytest.approx(0.5, abs=1e-6)

    def test_json_format(self, capsys):
        assert main(["state", "--T", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["xi2"] == pytest.approx(1 / 3, abs=1e-12)
        assert len(payload["amplitudes"]) == 4
        assert payload["amplitudes"][0]["label"] == "|3,0>_HV"

    def test_negative_ratio_rejected(self, capsys):
        assert main(["state", "--T", "-2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_text_report_pinned(self, capsys):
        assert main(["state", "--T", "1"]) == 0
        assert capsys.readouterr().out == STATE_T1_TEXT


class TestNoon:
    @pytest.mark.parametrize("num, chi2", [(3, 1 / 3), (5, 0.2), (1, 1.0)])
    def test_heisenberg_values(self, capsys, num, chi2):
        assert main(["noon", "--N", str(num), "--noon-phase", repr(-np.pi / 2)]) == 0
        text = capsys.readouterr().out
        value = float(text.split("chi2")[1].split("=")[1].split()[0])
        assert value == pytest.approx(chi2, abs=1e-10)

    def test_metrics_block(self, capsys):
        assert main(["noon", "--N", "3", "--noon-phase", repr(-np.pi / 2),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["v_plus"] == pytest.approx(2.25, abs=1e-10)
        assert report["v_minus"] == pytest.approx(0.75, abs=1e-10)
        assert report["xi2"] == pytest.approx(1.0, abs=1e-10)
        assert report["zeta2"] is None and report["zeta2_unbounded"]
        assert report["qfi"] == pytest.approx(9.0, abs=1e-10)

    def test_zero_photons_rejected(self, capsys):
        assert main(["noon", "--N", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_text_report_pinned(self, capsys):
        assert main(["noon", "--N", "3", "--noon-phase", "-1.5707963267948966"]) == 0
        assert capsys.readouterr().out == NOON3_TEXT

    def test_oversize_photon_number_rejected(self, capsys, monkeypatch):
        # 2049^2 entries per dense matrix: refused before any matrix is filled.
        # S1..S3, the mean's S2 and S3 and every d.S are filled from a band
        # that `spin_core._stokes_band` returned, so the spy records a band
        # only if one could be filled.
        filled = []
        band = spin_core._stokes_band

        def spy(num_photons):
            filled.append(band(num_photons))
            return filled[-1]

        monkeypatch.setattr(spin_core, "_stokes_band", spy)
        assert main(["noon", "--N", "2048"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "MAX_DENSE_ENTRIES" in captured.err
        assert captured.out == "" and not filled

    def test_husimi_beyond_the_dense_bound(self, tmp_path):
        # a Husimi map builds no dense Stokes matrix
        out = tmp_path / "noon.pgm"
        assert main(["husimi", "--N", "2048", "--n-theta", "5", "--n-phi", "8",
                     "--format", "pgm", "--output", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n8 5\n255\n")

    @pytest.mark.parametrize("command", ["noon", "husimi"])
    def test_huge_photon_number_refused_before_its_state(self, tmp_path, capsys, command):
        # 10^12 + 1 amplitudes would take 14.6 TiB: refused before any is made
        out = tmp_path / "noon.pgm"
        argv = [command, "--N", str(10**12)]
        if command == "husimi":
            argv += ["--format", "pgm", "--output", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "MAX_PHOTONS = 1048576" in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["state", "--T", "nan"],
    ["noon", "--N", "3", "--noon-phase", "nan"],
    ["sweep", "--t-max", "inf", "--steps", "5", "--output"],
    ["husimi", "--T", "nan", "--format", "pgm", "--output"],
], ids=["state", "noon", "sweep", "husimi"])
def test_non_finite_argument_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[-1] == "--output":
        argv = argv + [str(out)]
    assert main(argv) != 0
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_arithmetic_failure_reported(tmp_path, capsys, monkeypatch):
    # an overflow raised inside the library is reported, not a traceback
    def overflowing(state, grid):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(cli, "q_grid", overflowing)
    out = tmp_path / "big.csv"
    argv = ["husimi", "--N", "1100", "--n-theta", "3", "--n-phi", "3", "--output", str(out)]
    assert main(argv) != 0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_husimi_beyond_float_binomials(tmp_path):
    # the middle binomial weights of N = 1100 exceed the float range
    out = tmp_path / "big.csv"
    argv = ["husimi", "--N", "1100", "--n-theta", "3", "--n-phi", "3", "--output", str(out)]
    assert main(argv) == 0
    q = [float(row["Q"]) for row in _rows(out.read_text())[1]]
    # the NOON state is half |N,0> (north pole) and half |0,N> (south pole)
    assert q == pytest.approx([0.5] * 3 + [0.0] * 3 + [0.5] * 3, abs=1e-12)


class TestHusimi:
    def test_pgm_threefold_symmetry(self, tmp_path):
        out = tmp_path / "noon.pgm"
        assert main(["husimi", "--T", repr(SQRT3), "--n-theta", "61",
                     "--n-phi", "120", "--output", str(out), "--format", "pgm"]) == 0
        blob = out.read_bytes()
        header, rest = blob.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"120 61"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        image = np.frombuffer(pixels, dtype=np.uint8).reshape(61, 120)
        np.testing.assert_array_equal(image, np.roll(image, 40, axis=1))
        assert image.max() == 255

    def test_csv_argmax_at_equator(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["husimi", "--T", "0", "--n-theta", "91", "--n-phi", "120",
                     "--output", str(out)]) == 0
        header, rows = _rows(out.read_text())
        assert header == ["theta", "phi", "p", "Q"]
        assert len(rows) == 91 * 120
        best = max(rows, key=lambda r: float(r["Q"]))
        assert float(best["theta"]) == pytest.approx(np.pi / 2, abs=1e-9)
        assert float(best["phi"]) == pytest.approx(np.pi / 2, abs=1e-9)
        assert float(best["p"]) == pytest.approx(0.0, abs=1e-12)

    def test_noon_selector(self, tmp_path):
        out = tmp_path / "noon.csv"
        assert main(["husimi", "--N", "3", "--noon-phase", repr(-np.pi / 2),
                     "--n-theta", "21", "--n-phi", "24", "--output", str(out)]) == 0
        header, rows = _rows(out.read_text())
        best = max(rows, key=lambda r: float(r["Q"]))
        assert abs(float(best["p"])) == pytest.approx(1.0, abs=1e-12)

    def test_selector_validation(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["husimi", "--output", out]) == 1
        assert main(["husimi", "--T", "1", "--N", "3", "--output", out]) == 1

    @pytest.mark.parametrize("phase", ["0.5", "0"])
    def test_noon_phase_needs_a_noon_state(self, tmp_path, capsys, phase):
        # a triphoton map has no NOON phase to set: refused, not ignored
        out = tmp_path / "x.pgm"
        argv = ["husimi", "--T", "1", "--noon-phase", phase, "--format", "pgm"]
        assert main(argv + ["--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --noon-phase applies to a NOON state (--N), not to --T\n"
        assert captured.out == "" and not out.exists()

    def test_noon_phase_defaults_to_zero(self, tmp_path):
        paths = [tmp_path / "default.pgm", tmp_path / "zero.pgm"]
        argv = ["husimi", "--N", "5", "--n-theta", "31", "--n-phi", "40", "--format", "pgm"]
        assert main(argv + ["--output", str(paths[0])]) == 0
        assert main(argv + ["--noon-phase", "0", "--output", str(paths[1])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tiny_grid_rejected(self, tmp_path):
        assert main(["husimi", "--T", "1", "--n-theta", "1",
                     "--output", str(tmp_path / "x.csv")]) == 1

    def test_oversize_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["husimi", "--T", "1", "--n-theta", "1000000", "--n-phi", "1000000",
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "MAX_GRID_ENTRIES" in captured.err
        assert not out.exists()

    def test_deterministic_pgm(self, tmp_path):
        argv = ["husimi", "--T", "1", "--n-theta", "31", "--n-phi", "36",
                "--format", "pgm", "--output"]
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scheme", ["endpoint", "midpoint"])
    @pytest.mark.parametrize("shape", [(2, 2), (7, 5), (256, 17)], ids=str)
    def test_csv_matches_per_cell_writer(self, tmp_path, monkeypatch, scheme, shape):
        for state_args in HUSIMI_STATES:
            blob, result = _husimi_csv(tmp_path, monkeypatch, state_args, shape, scheme)
            assert blob == _per_cell_csv(result), state_args

    @pytest.mark.parametrize("scheme, state_args", [
        ("endpoint", ["--N", "64"]),
        ("midpoint", ["--T", repr(SQRT3)]),
    ], ids=["endpoint-N64", "midpoint-Tsqrt3"])
    def test_default_grid_csv_matches_per_cell_writer(
        self, tmp_path, monkeypatch, scheme, state_args
    ):
        blob, result = _husimi_csv(tmp_path, monkeypatch, state_args, (181, 360), scheme)
        assert blob == _per_cell_csv(result)

    @pytest.mark.parametrize("scheme", ["endpoint", "midpoint"])
    @pytest.mark.parametrize("shape", [(2, 2), (7, 5), (256, 17)], ids=str)
    def test_csv_zero_and_extreme_cells_match_per_cell_writer(
        self, tmp_path, monkeypatch, scheme, shape
    ):
        # no CLI state has an exact zero of Q on these grids, so plant zeros,
        # the smallest subnormal, ones and values next to 1 in the real map
        def planted(state, grid):
            values = q_grid(state, grid).values.copy()
            values[::2, ::3] = 0.0
            values[-1, :] = 0.0
            values[0, -1] = 5e-324
            values[-1, 0] = 1.0
            values[1::3, 1::2] = math.nextafter(1.0, 0.0)
            return QGrid(grid, values, 1.0)

        monkeypatch.setattr(cli, "q_grid", planted)
        blob, result = _husimi_csv(tmp_path, monkeypatch, ["--N", "3"], shape, scheme)
        assert blob == _per_cell_csv(result)
        assert b",0\n" in blob and b",4.94065645841e-324\n" in blob and b",1\n" in blob
        if scheme == "endpoint":  # both pole rows are present
            lines = blob.split(b"\n")
            assert lines[1].startswith(b"0,0,1,")
            assert lines[-2].startswith(f"{_fmt(math.pi)},".encode())


    @pytest.mark.parametrize("scheme", ["endpoint", "midpoint"])
    def test_csv_decimal_edges_match_per_cell_writer(self, tmp_path, monkeypatch, scheme):
        # a default-size map of seeded log-uniform values in [1e-13, 1], led
        # by every power of ten in range with its float neighbours, exact
        # ties of the 12th significant digit and the extreme cells
        rng = np.random.default_rng(1018)
        edges = [0.0, 5e-324, 1.0, math.nextafter(1.0, 0.0), 2.0**-18, 1e-11, 1e-13]
        for j in range(-13, 1):
            edges += [10.0**j, math.nextafter(10.0**j, 0.0), math.nextafter(10.0**j, 2.0)]
        edges = [t for t in edges + _DIGIT_TIES if t <= 1.0]

        def planted(state, grid):
            values = np.exp(rng.uniform(math.log(1e-13), 0.0, (grid.n_theta, grid.n_phi)))
            values.reshape(-1)[: len(edges)] = edges
            return QGrid(grid, values, 1.0)

        monkeypatch.setattr(cli, "q_grid", planted)
        blob, result = _husimi_csv(tmp_path, monkeypatch, ["--N", "3"], (181, 360), scheme)
        assert blob == _per_cell_csv(result)
        assert b",3.81469726562e-06\n" in blob and b",1e-11\n" in blob

    @pytest.mark.parametrize("scheme", ["endpoint", "midpoint"])
    def test_wide_grid_csv_matches_per_cell_writer(self, tmp_path, monkeypatch, scheme):
        # each theta row holds 70,000 cells, more than one written block
        for state_args in (["--T", "1"], ["--N", "27"]):
            blob, result = _husimi_csv(tmp_path, monkeypatch, state_args, (2, 70000), scheme)
            assert blob == _per_cell_csv(result), state_args

    @pytest.mark.parametrize("scheme, shape", [
        ("endpoint", (181, 360)), ("midpoint", (181, 360)),
        ("endpoint", (2, 5000)), ("midpoint", (2, 5000)),
    ], ids=str)
    def test_csv_buffer_edges_match_per_cell_writer(self, tmp_path, monkeypatch, scheme, shape):
        # 181 rows of 360 end in a block of 5 rows, not 11; a row of 5000
        # cells is a part of 4096 and a part of 904 in the one buffer
        n_theta, n_phi = shape
        rows, cols = max(1, cli.HUSIMI_CSV_CELLS // n_phi), min(n_phi, cli.HUSIMI_CSV_CELLS)
        assert n_theta % rows or n_phi % cols
        blob, result = _husimi_csv(tmp_path, monkeypatch, ["--T", "1"], shape, scheme)
        assert blob == _per_cell_csv(result)
        if shape == (181, 360) and scheme == "endpoint":
            # the p words of the theta = pi/2 block are wider than the first block's
            first = cli._text_words([_fmt(math.cos(t)) for t in result.grid.thetas[:rows]])
            assert first.shape[1] < cli._grid_words(*shape, scheme)[1].shape[1]
            assert b",6.12323399574e-17," in blob

    def test_csv_writer_keeps_one_buffer(self, tmp_path):
        # the writer holds its one block buffer and, while Q is rendered,
        # g12_words' own arrays (about 1.5 blocks' bytes here); a block made
        # per iteration, or a copy of the buffer before its NULs are
        # removed, exceeds the bound
        grid = cli.SphereGrid(181, 360, scheme="endpoint")
        values = q_grid(triphoton_state(1.0), grid).values
        theta_words, p_words, phi_words = cli._grid_words(181, 360, "endpoint")
        width = theta_words.shape[1] + p_words.shape[1] + phi_words.shape[1] + 7
        lines = cli.HUSIMI_CSV_CELLS // 360 * 360
        out = np.zeros((lines, cli.G12_WORDS), dtype="<u4")
        path = str(tmp_path / "q.csv")
        cli._write_husimi_csv(path, grid, values)
        peaks = []
        for call in (lambda: cli.g12_words(values[:11].ravel(), out),
                     lambda: cli._write_husimi_csv(path, grid, values)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        g12_peak, writer_peak = peaks
        assert writer_peak < 4 * lines * width + g12_peak + 2**15

    def test_second_map_on_a_grid_formats_no_text(self, tmp_path, monkeypatch):
        calls = []

        def spy(value):
            calls.append(value)
            return _fmt(value)

        cli._grid_words.cache_clear()
        monkeypatch.setattr(cli, "_fmt", spy)
        grid_args = ["--n-theta", "31", "--n-phi", "40", "--output"]
        assert main(["husimi", "--T", "1", *grid_args, str(tmp_path / "a.csv")]) == 0
        assert len(calls) == 2 * 31 + 40  # theta and p per row, phi per column
        assert main(["husimi", "--N", "5", *grid_args, str(tmp_path / "b.csv")]) == 0
        assert len(calls) == 2 * 31 + 40

    @pytest.mark.parametrize("fmt, writes", [("csv", 2), ("pgm", 1)])
    def test_failed_write_removes_the_file(self, tmp_path, capsys, monkeypatch, fmt, writes):
        # the header, and for CSV its first block, reach the file; the next write fails
        def failing_open(path, mode, **kwargs):
            handle = open(path, mode, **kwargs)
            write, left = handle.write, iter(range(writes))

            def limited(data):
                if next(left, None) is None:
                    raise OSError(28, "No space left on device")
                return write(data)

            handle.write = limited
            return handle

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        out = tmp_path / f"q.{fmt}"
        assert main(["husimi", "--T", "1", "--format", fmt, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert not out.exists()

class TestParserReuse:
    """`main` may keep one parser for the whole process; every call still
    parses its own arguments from the declared defaults."""

    @staticmethod
    def _parameters(capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["meta"]["parameters"]

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        sweep = ["sweep", "--format", "json", "--output", str(out)]
        assert main(sweep + ["--t-min", "0.5", "--t-max", "2.5", "--steps", "7"]) == 0
        assert json.loads(out.read_text())["meta"]["parameters"] == {
            "t_min": 0.5, "t_max": 2.5, "steps": 7,
        }
        noon = ["noon", "--format", "json", "--N"]
        assert self._parameters(capsys, noon + ["5", "--noon-phase", "0.25"]) == {
            "N": 5, "noon_phase": 0.25,
        }
        assert main(sweep) == 0
        assert json.loads(out.read_text())["meta"]["parameters"] == {
            "t_min": 0.0, "t_max": 1.8, "steps": 181,
        }
        assert self._parameters(capsys, noon + ["3"]) == {"N": 3, "noon_phase": 0.0}
        assert self._parameters(capsys, ["state", "--T", "1", "--format", "json"]) == {"T": 1.0}
        assert main(["state", "--T", "1"]) == 0
        assert capsys.readouterr().out == STATE_T1_TEXT

    @pytest.mark.parametrize("rejected", [
        ["sweep", "--steps", "many", "--output", "x.csv"],
        ["noon", "--format", "json"],
        ["state", "--T", "1", "--format", "xml"],
        ["husimi", "--T", "1", "--output", "x.csv", "--unknown"],
        [],
    ], ids=["bad-int", "missing-required", "bad-choice", "unknown-option", "no-command"])
    def test_rejected_call_leaves_next_call_unaffected(self, capsys, rejected):
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert main(["state", "--T", "1"]) == 0
        assert capsys.readouterr().out == STATE_T1_TEXT
        assert self._parameters(capsys, ["noon", "--N", "3", "--format", "json"]) == {
            "N": 3, "noon_phase": 0.0,
        }

    def test_rebound_command_runs(self, monkeypatch, capsys):
        # the parser is already built; a wrapper bound to cli.cmd_noon later
        # (a monkeypatch, a tracing profiler) is still the function called
        assert main(["noon", "--N", "2"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_noon", lambda args: calls.append(args.N) or 0)
        assert main(["noon", "--N", "4"]) == 0
        assert calls == [4] and capsys.readouterr().out.count("NOON") == 1

    @staticmethod
    def _help(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", ["", "sweep", "state", "husimi", "noon", "verify"],
                             ids=lambda c: c or "top")
    def test_help_text_unchanged(self, capsys, command):
        argv = [command, "--help"] if command else ["--help"]
        expected = self._help(cli.build_parser().parse_args, argv, capsys)
        assert command in expected.splitlines()[0]
        for _ in range(2):
            assert self._help(main, argv, capsys) == expected
            assert main(["noon", "--N", "2"]) == 0
            capsys.readouterr()


class TestVerify:
    def test_fresh_build_passes(self, verify_run):
        code, text = verify_run
        assert code == 0
        assert "FAIL" not in text
        assert text.endswith("\n25/25 checks passed\n")

    def test_output_is_deterministic(self, capsys, verify_run):
        main(["verify"])
        assert capsys.readouterr().out == verify_run[1]

    def test_perturbed_ladder_detected(self, capsys):
        assert main(["verify", "--perturb-ladder", "1e-6"]) == 1
        text = capsys.readouterr().out
        assert "FAIL  su2-commutators" in text

    def test_raising_dependency_fails_its_checks_only(self, capsys, monkeypatch):
        # every check still prints its row; the ones that hit the error FAIL
        def broken(*args, **kwargs):
            raise ArithmeticError("S2 eigenvalues deviate from k - s by 1.000e-09")

        monkeypatch.setattr(verify, "coherent_state", broken)
        assert main(["verify"]) == 1
        *rows, summary = capsys.readouterr().out.splitlines()
        assert len(rows) == 25
        assert [row.split()[1] for row in rows] == [check.name for check in verify.CHECKS]
        failed = [row for row in rows if row.startswith("FAIL")]
        assert [row.split()[1] for row in failed] == [
            "coherent-closed-form", "husimi-normalization", "husimi-features",
        ]
        for row in failed:
            assert row.endswith("error: S2 eigenvalues deviate from k - s by 1.000e-09")
        assert summary == "22/25 checks passed"
