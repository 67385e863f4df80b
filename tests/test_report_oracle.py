"""The report tail (frame, ellipse, V-+ and the figures of merit) against an
in-test copy of the per-row object tail it replaced.

The copy computes one state at a time: the mean from the dense S1..S3, the
frame from its angles as three numpy vectors, the ellipse moments from the
band combinations n1.S and n2.S, then the scalar tail.  From N = 4 on, as
the moment kernel does, it takes every image from the three O(N) images of
`conftest.ladder_images` instead of a dense matrix.  Every report field
must agree with it by the repr of its value.  A float field is compared as
`float.__repr__`, which tells apart every bit pattern (-0.0 included): the
copied tail leaves numpy scalars in some fields where a tail on Python floats
leaves floats, and only the bits are the published value.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import combined_image, ladder_images  # noqa: E402
from stokes_squeeze import (  # noqa: E402
    basis_state,
    bloch_frame,
    build_spin_space,
    coherent_state,
    noon_state,
    squeezing_report,
    squeezing_reports,
)
from stokes_squeeze.spin_core import (  # noqa: E402
    _banded,
    _real_expectation,
    _stokes_combination,
    stokes_operator,
)
from stokes_squeeze.squeezing import (  # noqa: E402
    DEFAULT_FALLBACK_ANGLES,
    DEGENERACY_TOL,
    ISOTROPY_TOL,
    MOMENT_SNAP,
    MeanPolarization,
)
from stokes_squeeze.verify import random_state  # noqa: E402

PARTS = ("MeanPolarization", "BlochFrame", "VarianceEllipse", "SqueezingReport")


def _value(value):
    if isinstance(value, np.ndarray):
        return str(value.dtype), [float.__repr__(x) for x in value.tolist()]
    if isinstance(value, float):  # np.float64 too
        return float.__repr__(value)
    return repr(value)


def _fields(report) -> dict:
    """Every field of a report, keyed `Part.name`, as `_value` renders it."""
    fields = {}
    for part in (report.mean, report.frame, report.ellipse, report):
        for name, value in vars(part).items():
            if name not in ("mean", "frame", "ellipse"):
                fields[f"{type(part).__name__}.{name}"] = _value(value)
    return fields


# --- the per-row object tail, as copied ------------------------------------


def _oracle_frame(components, length, radius):
    if length <= DEGENERACY_TOL:
        theta, phi = DEFAULT_FALLBACK_ANGLES
        degenerate = True
    elif radius <= DEGENERACY_TOL:
        theta, phi, degenerate = (0.0 if components[0] > 0 else math.pi), 0.0, False
    else:
        theta = math.atan2(radius, components[0])
        phi = math.atan2(components[2], components[1])
        degenerate = False
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    n1 = np.array([0.0, -sin_p, cos_p])
    n2 = np.array([sin_t, -cos_t * cos_p, -cos_t * sin_p])
    n3 = np.array([cos_t, sin_t * cos_p, sin_t * sin_p])
    return {"n1": n1, "n2": n2, "n3": n3, "theta": theta, "phi": phi, "degenerate": degenerate}


def _oracle_ellipse(a, b, c):
    snap = MOMENT_SNAP * max(1.0, c)
    if abs(a) < snap:
        a = 0.0
    if abs(b) < snap:
        b = 0.0
    if math.hypot(a, b) < ISOTROPY_TOL:
        return {"A": a, "B": b, "C": c, "gamma_opt": 0.0, "isotropic": True}
    gamma = (math.pi + math.atan2(b, a)) / 2.0
    return {"A": a, "B": b, "C": c, "gamma_opt": gamma, "isotropic": False}


def _oracle_tail(spin, length, ellipse):
    spread = math.hypot(ellipse["A"], ellipse["B"])
    v_minus = (ellipse["C"] - spread) / 2.0
    v_plus = (ellipse["C"] + spread) / 2.0
    if v_minus < 0.0:
        assert v_minus >= -1e-12
        v_minus = 0.0
    xi2 = 2.0 * v_minus / spin
    if length > DEGENERACY_TOL:
        zeta2, unbounded = (spin / length) ** 2 * xi2, False
    else:
        zeta2, unbounded = None, True
    return {
        "v_minus": v_minus, "v_plus": v_plus, "xi2": xi2, "zeta2": zeta2,
        "zeta2_unbounded": unbounded, "chi2": spin / (2.0 * v_plus), "qfi": 4.0 * v_plus,
        "snl": spin / 2.0,
    }


def _oracle_fields(state) -> dict:
    space, amps = state.space, state.amplitudes
    if _banded(space):
        images = ladder_images(space, amps)
    else:
        images = [stokes_operator(space, k).matrix @ amps for k in (1, 2, 3)]
    raw = np.array([np.vdot(amps, image) for image in images])
    comps = np.ascontiguousarray(_real_expectation(raw))
    length = float(np.sqrt(np.vdot(comps, comps)))
    radius = float(np.hypot(comps[1], comps[2]))
    frame = _oracle_frame(comps, length, radius)
    if _banded(space):
        image1, image2 = (combined_image(frame[n], images) for n in ("n1", "n2"))
    else:
        image1, image2 = (_stokes_combination(space, frame[n]) @ amps for n in ("n1", "n2"))
    sq1, sq2 = np.vdot(image1, image1).real, np.vdot(image2, image2).real
    ellipse = _oracle_ellipse(sq1 - sq2, 2.0 * np.vdot(image1, image2).real, sq1 + sq2)
    parts = (
        {"components": comps, "length": length, "transverse_radius": radius},
        frame,
        ellipse,
        _oracle_tail(space.spin, length, ellipse),
    )
    return {
        f"{part}.{name}": _value(value)
        for part, fields in zip(PARTS, parts)
        for name, value in fields.items()
    }


# --- tests ------------------------------------------------------------------


def _stack_member(kind: str, num_photons: int, rng):
    space = build_spin_space(num_photons)
    if kind == "coherent":  # isotropic ellipse
        return coherent_state(space, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    if kind == "noon":  # vanishing mean, so the fallback frame
        return noon_state(num_photons, rng.uniform(0, 2 * math.pi))
    if kind == "basis":  # mean on the S1 axis, so the pole frame
        return basis_state(space, space.n_values[rng.integers(space.dimension)])
    return random_state(space, rng)


stack_kinds = st.lists(
    st.sampled_from(["random", "coherent", "noon", "basis"]), min_size=1, max_size=12
)


@given(
    st.integers(min_value=1, max_value=40),
    stack_kinds,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_and_single_reports_match_per_row_tail(num_photons, kinds, seed):
    rng = np.random.default_rng(seed)
    states = [_stack_member(kind, num_photons, rng) for kind in kinds]
    expected = [_oracle_fields(state) for state in states]
    stacked = squeezing_reports(states[0].space, [s.amplitudes for s in states])
    assert [_fields(report) for report in stacked] == expected
    assert [_fields(squeezing_report(state)) for state in states] == expected


@pytest.mark.parametrize("num_photons", [128, 512])
@pytest.mark.parametrize("kind", ["random", "coherent", "noon", "basis"])
def test_large_single_reports_match_per_row_tail(num_photons, kind):
    state = _stack_member(kind, num_photons, np.random.default_rng(num_photons))
    assert _fields(squeezing_report(state)) == _oracle_fields(state)


components = st.floats(min_value=-32.0, max_value=32.0)
tiny = st.floats(min_value=-DEGENERACY_TOL, max_value=DEGENERACY_TOL)
pole_lengths = st.floats(min_value=1e-9, max_value=32.0)
means = st.one_of(
    st.tuples(components, components, components),
    # within 1e-10 of a pole, where the frame snaps to phi = 0
    st.tuples(pole_lengths.flatmap(lambda x: st.sampled_from([x, -x])), tiny, tiny),
    # a vanishing mean takes the fallback frame
    st.tuples(tiny, tiny, tiny),
)


@given(means)
def test_frame_matches_per_row_tail(components):
    comps = np.asarray(components, dtype=float)
    length, radius = float(np.linalg.norm(comps)), float(np.hypot(comps[1], comps[2]))
    frame = bloch_frame(MeanPolarization(comps, length, radius))
    expected = _oracle_frame(comps, length, radius)
    assert {name: _value(value) for name, value in vars(frame).items()} == {
        name: _value(value) for name, value in expected.items()
    }
