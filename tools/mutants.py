"""Mutation gate: each listed source mutation must fail the tier-1 suite.

Every mutant is a fresh copy of `src/`, `tests/` and `bench/` (read by
`tests/test_golden.py` for the recorded digests) in a temporary directory,
with one textual edit applied to one source file.  On each copy the script
runs `stokes-squeeze verify` and the tier-1 suite without
`tests/test_mutants.py` (which checks this list against the unmutated source
and imports `tools/`, which the copy does not hold), and records

* the tests that fail on the mutant but not on the unmutated copy (the suite
  has a deliberate failure, acceptance 04, which never counts as a kill), and
* the names of the `verify` checks that print FAIL, or the error it exits with.

It prints one table row per mutant and exits 1 if tier-1 passes on any of
them, or if an edit no longer matches its source exactly once.  With
`--json PATH` it also writes the whole kill matrix there: for the unmutated
copy and for each mutant, the failing test ids and the `verify` checks that
FAIL (or the error `verify` exits with).  Standard library only; nothing
outside the temporary directory and that file is written.

    python tools/mutants.py [--json kills.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/stokes_squeeze"

#: (name, file, text, replacement): each text must occur exactly once
MUTANTS = (
    (
        # a - c of the Euler form with d2 and d3 swapped
        "beta-atan2-d2-d3",
        "elements.py",
        "atan2(d[2], d[1])",
        "atan2(d[1], d[2])",
    ),
    (
        # a + c of the Euler form with the sign of sin(angle/2) d1 flipped
        "alpha-negated",
        "elements.py",
        "atan2(v * d[0], u)",
        "atan2(-v * d[0], u)",
    ),
    (
        # the flip-odd block of S2 takes +c/2 on its middle entry (odd N)
        "s2-odd-block-sign",
        "spin_core.py",
        "block[-1, -1] = sign * half[pairs - 1]",
        "block[-1, -1] = half[pairs - 1]",
    ),
    (
        # the last even pair couples to e_{N/2} by c/2, not sqrt2 c/2 (even N)
        "s2-middle-coupling-unscaled",
        "spin_core.py",
        "off[-1] *= math.sqrt(2.0)",
        "off[-1] *= 1.0",
    ),
    (
        # the unfold writes y_e + y_o to N - j as well as to j, so the
        # flip-odd half of every rotated state lands on the wrong side
        "s2-unfold-sign",
        "spin_core.py",
        "unfold[1, 1] = -root",
        "unfold[1, 1] = root",
    ),
    (
        # the scan's cross term negated: V(gamma) reads V(-gamma), so the
        # extrema keep their values and the argmin moves to -gamma_opt
        "scan-cross-term-sign",
        "verify.py",
        "2.0 * cos_g * sin_g",
        "-2.0 * cos_g * sin_g",
    ),
    (
        "d2-sign-flipped",
        "spin_core.py",
        "d1 * parts[0] + d2 * parts[1] + d3 * parts[2]",
        "d1 * parts[0] - d2 * parts[1] + d3 * parts[2]",
    ),
    (
        # V- of one state (extremal_variances)
        "v-minus-scaled-0.999",
        "squeezing.py",
        "v_minus = (c - spread) / 2.0",
        "v_minus = 0.999 * (c - spread) / 2.0",
    ),
    (
        # V- of a stack (the columns)
        "v-minus-columns-scaled-0.999",
        "squeezing.py",
        "(c - spread) / 2.0, (c + spread) / 2.0",
        "0.999 * (c - spread) / 2.0, (c + spread) / 2.0",
    ),
    (
        "ladder-coefficient-perturbed",
        "spin_core.py",
        "return np.sqrt((space.spin - n) * (space.spin + n + 1))",
        "return np.sqrt((space.spin - n) * (space.spin + n + 1))"
        " + 1e-6 * (np.arange(n.size) == 0)",
    ),
    (
        "s3-band-sign-flipped",
        "spin_core.py",
        "s3 = np.concatenate(",
        "s3 = -np.concatenate(",
    ),
    (
        # the mean's S2 image taken with S3's band, so <S2> reads <S3>
        "mean-s2-band-written-as-s3",
        "spin_core.py",
        "np.put(work, flat, b2)",
        "np.put(work, flat, b3)",
    ),
    (
        "qwp-angle-sign-flipped",
        "elements.py",
        "_s2_rotate(state.space, -np.pi / 2, state.amplitudes)",
        "_s2_rotate(state.space, np.pi / 2, state.amplitudes)",
    ),
    (
        "profile-exponents-swapped",
        "states.py",
        "profile = np.sqrt(binom) * cos ** (num_photons - k) * sin**k",
        "profile = np.sqrt(binom) * cos**k * sin ** (num_photons - k)",
    ),
    (
        # one state's ellipse (variance_ellipse) on the pair (n2, n1): A
        # flips its sign and gamma_opt turns by pi/2; a stack is unchanged
        "single-ellipse-pair-swapped",
        "squeezing.py",
        "np.array((frame.n1, frame.n2))",
        "np.array((frame.n2, frame.n1))",
    ),
    (
        # a stack's n1 directions one row late: a one-row stack is unchanged
        "stacked-frames-shifted",
        "squeezing.py",
        "frames[0].T",
        "np.roll(frames[0].T, 1, axis=0)",
    ),
    (
        # the frame vectors of one state (bloch_frame): a left-handed frame
        "frame-n2-sign-flipped",
        "squeezing.py",
        "(sin_t, -cos_t * cos_p, -cos_t * sin_p),",
        "(-sin_t, cos_t * cos_p, cos_t * sin_p),",
    ),
    (
        # the frame vectors of a stack (the columns): a left-handed frame
        "frame-columns-n2-sign-flipped",
        "squeezing.py",
        "        sin_t, -cos_t * cos_p, -cos_t * sin_p,\n",
        "        -sin_t, cos_t * cos_p, cos_t * sin_p,\n",
    ),
    (
        # B of one state (variance_ellipse) keeps its round-off, so atan2 of
        # the noise can give the triphoton family gamma_opt near 0 instead of pi
        "moment-snap-b-dropped",
        "squeezing.py",
        "if abs(b) < snap:",
        "if abs(b) < 0.0:",
    ),
    (
        # the same for a stack's B column
        "moment-snap-columns-b-dropped",
        "squeezing.py",
        "b = np.where(np.abs(b) < snap, 0.0, b)",
        "b = np.where(np.abs(b) < 0.0, 0.0, b)",
    ),
    (
        # an unbounded zeta2 written as Python's None instead of JSON null
        "json-null-as-None",
        "cli.py",
        '"json": ("%r", {None: "null",',
        '"json": ("%r", {None: "None",',
    ),
    (
        # every block of the reused CSV buffer takes the first block's theta
        # words: rows past the first block print the wrong theta
        "csv-theta-words-first-block-only",
        "cli.py",
        "theta_words[r0 : r0 + n, None]",
        "theta_words[:n, None]",
    ),
    (
        # the buffer's phi words written in the first theta row only: each
        # later row wider than HUSIMI_CSV_CELLS starts with the last part's phis
        "csv-phi-words-written-in-the-first-row-only",
        "cli.py",
        "if r0 == 0 or n_phi > cols:",
        "if r0 == 0:",
    ),
    (
        # a failed write keeps its partial file
        "partial-output-kept",
        "cli.py",
        "        os.remove(path)\n",
        "        pass\n",
    ),
    (
        # weights at T = 0 are then IEEE powers of zero: the same except for
        # the -0 odd powers at T = -0.0
        "vpp-zero-row-unmasked",
        "elements.py",
        "    weights[t_ratios == 0.0] = k == 0\n",
        "",
    ),
    (
        # no slack around a half where some 10^k is no double: fl(x hi) is
        # then taken to decide the digits of cells within 2^-12 of a tie
        "g12-slack-dropped",
        "_g12.py",
        ">= 0.5 - slack",
        ">= 0.5",
    ),
    (
        # the cells fl(x 10^k) does not decide keep np.rint's digits instead
        # of taking `%`
        "g12-undecided-not-redone",
        "_g12.py",
        "(e > 0) | undecided)",
        "(e > 0))",
    ),
    (
        # <n1.S n2.S> summed by numpy's pairwise sum instead of one BLAS dot,
        # in `_moments_of`, which one state and every stack chunk run: it
        # differs in the last bit on most random states
        "moment-dot-summed-in-numpy",
        "spin_core.py",
        "np.vecdot(image1, image2)",
        "(image1.conj() * image2).sum(axis=-1)",
    ),
    (
        # the band route's S3 image negated, in one state's cached images
        # and in a stack's chunks: <S3> and the frame flip
        "band-s3-image-sign",
        "spin_core.py",
        "(down - up) * 1j",
        "(up - down) * 1j",
    ),
    (
        # the band route's S+ a takes a_(k-1) and S- a takes a_(k+1), for
        # one state's (N+1,) amplitudes and a stack's rows alike
        "band-ladder-shift-swapped",
        "spin_core.py",
        "up[..., :-1] = half * amps[..., 1:]\n    down[..., 1:] = half * amps[..., :-1]",
        "up[..., :-1] = half * amps[..., :-1]\n    down[..., 1:] = half * amps[..., 1:]",
    ),
    (
        # N = 3, which makes every published output, takes the band route,
        # whose sums round otherwise: the sweep's golden digests move
        "band-route-from-n-3",
        "spin_core.py",
        "return space.num_photons > 3",
        "return space.num_photons > 2",
    ),
    (
        # the Hermitian operator takes any square matrix, as the ladder does
        "operator-hermiticity-removed",
        "spin_core.py",
        "        if not defect <= HERMITICITY_TOL:  # also rejects NaN and inf entries\n"
        "            raise ValueError",
        "        if False:\n            raise ValueError",
    ),
    (
        # stokes_operator(space, k) built on the unit axis of S(k+1): S1 reads
        # S2, S2 reads S3 and S3 reads S1
        "stokes-operator-axis-shifted",
        "spin_core.py",
        "np.eye(3)[which - 1]",
        "np.eye(3)[which % 3]",
    ),
    (
        # S+ written below the diagonal, so S+ is the lowering operator
        "ladder-band-lowered",
        "spin_core.py",
        "np.diag(_ladder_coefficients(space), k=1)",
        "np.diag(_ladder_coefficients(space), k=-1)",
    ),
    (
        # V D V^T instead of V D V^H: still unitary, and still exp(scale M)
        # for S1 and S2, whose eigenvectors are real; wrong only about S3
        "exponential-eigvecs-unconjugated",
        "spin_core.py",
        "@ eigvecs.conj().T",
        "@ eigvecs.T",
    ),
    (
        # coherent_state's azimuth offset: the state points along phi - pi
        "coherent-phase-offset-negated",
        "states.py",
        "np.exp(1j * (phi + np.pi / 2) * np.arange(space.dimension))",
        "np.exp(1j * (phi - np.pi / 2) * np.arange(space.dimension))",
    ),
    (
        # a damped exponent: exp((i + 1e-6) x M) passes neither post-hoc
        # check and does not keep the norm
        "exponential-scale-damped",
        "spin_core.py",
        "scale = complex(scale)",
        "scale = complex(scale) * complex(1.0, 1e-6)",
    ),
    (
        # (c2, c3) no longer normalized; the state, which is renormalized, is
        # unchanged
        "triphoton-root-power",
        "states.py",
        "root = math.sqrt(3.0 + t_ratio**4)",
        "root = math.sqrt(3.0 + t_ratio**2)",
    ),
    (
        # c2 never changes sign, so the family never reaches the NOON state
        "triphoton-c2-sign-dropped",
        "states.py",
        "c2 = (3.0 - t_ratio**2) / (2.0",
        "c2 = abs(3.0 - t_ratio**2) / (2.0",
    ),
    (
        "mean-s3-closed-form-sign",
        "squeezing.py",
        "return 2.0 * c2 * (math.sqrt(3.0) * c3 + c2)",
        "return 2.0 * c2 * (math.sqrt(3.0) * c3 - c2)",
    ),
    (
        "analytic-ellipse-cross-sign",
        "squeezing.py",
        "a = 15.0 / 8.0 - (3.0 * quad + cross) / 4.0",
        "a = 15.0 / 8.0 - (3.0 * quad - cross) / 4.0",
    ),
    (
        "analytic-v-minus-cross-sign",
        "squeezing.py",
        "v_minus = (7.5 - (quad + 8.0",
        "v_minus = (7.5 - (quad - 8.0",
    ),
    (
        # 1e-11 relative: inside every 1e-10 bound, outside chi2 = 1/N at 1e-12
        "chi2-scaled-1e-11",
        "squeezing.py",
        "spin / (2.0 * v_plus), 4.0 * v_plus",
        "spin / (2.0 * v_plus) * (1.0 + 1e-11), 4.0 * v_plus",
    ),
    (
        # the same for a stack's chi2 column
        "chi2-columns-scaled-1e-11",
        "squeezing.py",
        "chi2 = spin / (2.0 * v_plus)\n",
        "chi2 = spin / (2.0 * v_plus) * (1.0 + 1e-11)\n",
    ),
    (
        # the one transmissivity-ratio rule lets NaN through
        "ratio-admits-nan",
        "spin_core.py",
        "if not t_ratio >= 0:",
        "if t_ratio < 0:",
    ),
    (
        # a BlochFrame no longer checks its vectors
        "frame-post-init-check-dropped",
        "squeezing.py",
        "        _check_frame(*(v.tolist() for v in (self.n1, self.n2, self.n3)))\n",
        "        pass\n",
    ),
    (
        # a VarianceEllipse no longer checks C >= hypot(A, B)
        "ellipse-post-init-check-dropped",
        "squeezing.py",
        "        _check_ellipse(self.A, self.B, self.C)\n",
        "        pass\n",
    ),
    (
        # the S2 eigenbasis built at any N, past the dense bound
        "eigenbasis-bound-dropped",
        "spin_core.py",
        "    dim = _dense_dimension(num_photons)\n    half =",
        "    dim = num_photons + 1\n    half =",
    ),
    (
        # the Husimi map mirrored in phi: the table rows of a dense support
        # and the own rows of a sparse one
        "q-grid-phases-conjugated",
        "husimi.py",
        "return np.exp(-1j * np.outer(ks, phis))",
        "return np.exp(1j * np.outer(ks, phis))",
    ),
    (
        # a sparse support reads its rows from the whole table: the same
        # bits, but all N + 1 rows built and kept for |S| of them
        "sparse-phases-from-the-table",
        "husimi.py",
        "_phase_rows(support, grid.phis)",
        "_phases(grid.phis, num)[support]",
    ),
    (
        # a table one row short is kept: N one above the last largest fails
        "phase-table-grows-short",
        "husimi.py",
        "table.shape[0] <= num",
        "table.shape[0] < num",
    ),
    (
        # the Husimi sum misses the first support index: |N,0> of a NOON
        # state, k = 0 of a dense one
        "q-grid-support-first-dropped",
        "husimi.py",
        "support = np.flatnonzero(state.amplitudes)",
        "support = np.flatnonzero(state.amplitudes)[1:]",
    ),
)


def _copy_tree(dest: Path) -> None:
    for part in ("src", "tests", "bench"):
        shutil.copytree(
            ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
        )


def _mutate(dest: Path, filename: str, text: str, replacement: str) -> None:
    path = dest / PACKAGE / filename
    source = path.read_text()
    count = source.count(text)
    if count != 1:
        raise SystemExit(f"mutation text occurs {count} times in {filename}: {text!r}")
    path.write_text(source.replace(text, replacement))


def _run(dest: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=dest, env=env, capture_output=True, text=True
    )


def _failing_tests(dest: Path) -> set[str]:
    proc = _run(
        dest, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", "--ignore=tests/test_mutants.py", "tests",
    )
    failing = set()
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            failing.add(line.split(" ", 1)[1].split(" - ", 1)[0])
    if proc.returncode not in (0, 1) and not failing:
        failing.add(f"pytest exit {proc.returncode}")
    return failing


def _verify_failures(dest: Path) -> tuple[list[str], str | None]:
    """The `verify` checks that print FAIL, and the error line when it exits
    otherwise than by a FAIL."""
    proc = _run(dest, "-m", "stokes_squeeze.cli", "verify")
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        return failed, (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return failed, None


def _verify_text(failed: list[str], error: str | None) -> str:
    return error or ", ".join(failed) or "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation gate.")
    parser.add_argument("--json", metavar="PATH", help="write the kill matrix to PATH")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        _copy_tree(base)
        baseline = _failing_tests(base)
        base_verify = _verify_failures(base)
        print(f"unmutated: tier-1 failures {sorted(baseline) or 'none'}; "
              f"verify FAIL: {_verify_text(*base_verify)}")
        print("| mutant | tier-1 | new failing tests | verify FAIL |")
        print("|---|---|---|---|")
        survivors, rows = [], []
        for name, filename, text, replacement in MUTANTS:
            dest = Path(tmp) / name
            _copy_tree(dest)
            _mutate(dest, filename, text, replacement)
            new = _failing_tests(dest) - baseline
            verify = _verify_failures(dest)
            if not new:
                survivors.append(name)
            verdict = "killed" if new else "SURVIVED"
            print(f"| {name} | {verdict} | {len(new)} | {_verify_text(*verify)} |", flush=True)
            rows.append({
                "mutant": name, "file": f"{PACKAGE}/{filename}", "killed": bool(new),
                "failing_tests": sorted(new), "verify_fail": verify[0], "verify_error": verify[1],
            })
    if args.json:
        matrix = {
            "unmutated": {
                "failing_tests": sorted(baseline),
                "verify_fail": base_verify[0], "verify_error": base_verify[1],
            },
            "mutants": rows,
        }
        Path(args.json).write_text(json.dumps(matrix, indent=2) + "\n")
    if survivors:
        print(f"tier-1 passes on: {', '.join(survivors)}")
        return 1
    print(f"tier-1 kills all {len(MUTANTS)} mutants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
