"""The triphoton family and the NOON table against exact values.

`_exact_family(T)` evaluates the closed forms of the triphoton family in
40-digit `decimal` arithmetic at the exact value of the double T: the
amplitudes c2 and c3, the mean <S3> = 2 c2 (sqrt(3) c3 + c2) (<S1> = <S2> = 0),
the extremal variances

    V- = [15/2 - (9 c3^2 + c2^2 + 8 sqrt(3) c2 c3)] / 4,  V+ = (9 c3^2 + c2^2) / 2,

and from them xi^2 = 2 V- / s, chi^2 = s / (2 V+) and zeta^2 = (s / <S3>)^2 xi^2.
The NOON table is exact by hand: a NOON state with N >= 2 photons has a zero
mean, V- = s/2 and V+ = s^2, so xi^2 = 1 and chi^2 = 1/N; at N = 1 it is a
coherent state with |<S>| = s and V-+ = 1/4, so zeta^2 = 1.

Each field of the matrix route (the sweep columns and single reports) and of
the closed-form route in floats must lie within

    K ulp(exact) + C eps (s+1)^2

of the exact value, with eps = 2^-52.  K bounds the relative round-off of a
short chain of correctly rounded operations; C eps (s+1)^2 bounds the
absolute round-off of a moment of size up to s(s+1), which is all that is
left where the exact value is 0 or tiny (c2 and <S3> near T = sqrt(3)).
zeta^2 divides by <S3>^2 and takes, on top, the propagated term
zeta^2 2 C eps (s+1)^2 / |<S3>|.
"""

import math
from decimal import Decimal, localcontext

import pytest

from stokes_squeeze import (
    analytic_mean_s3,
    analytic_variances,
    noon_state,
    squeezing_report,
    squeezing_reports,
    triphoton_amplitudes,
)
from stokes_squeeze.cli import SWEEP_FIELDS, sweep_records, sweep_samples
from stokes_squeeze.squeezing import DEGENERACY_TOL
from stokes_squeeze.verify import FAMILY_NOON_PHASE

EPS = 2.0**-52
#: relative bound in ulps of the exact value.  Over 3,002 ratios in [0, 3]
#: the sweep's c3, V-+, xi^2 and chi^2 stay within 6.74 ulps: each is some
#: eight correctly rounded operations from T.  8 is the next power of two.
#: Where a field is small its absolute round-off dominates instead (c2 and
#: <S3> near T = sqrt(3), the closed-form V- at 24 ulps near T = 1).
K = 8.0
#: absolute bound in eps (s+1)^2.  Every field but zeta^2 stays within 1.31
#: of it over the same ratios (the closed-form V+): a moment sums terms of
#: size up to s(s+1) < (s+1)^2, each rounded; 2 leaves a margin of 1.5.
C = 2.0
#: the triphoton family's spin
SPIN = 1.5


def _exact_family(t_ratio: float) -> dict:
    """The triphoton fields at the double `t_ratio`, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        t2 = Decimal(t_ratio) ** 2
        root = (3 + t2 * t2).sqrt()
        sqrt3 = Decimal(3).sqrt()
        c2 = (3 - t2) / (2 * Decimal(2).sqrt() * root)
        c3 = (Decimal("1.5").sqrt() / 2) * (1 + t2) / root
        quad = 9 * c3 * c3 + c2 * c2
        s3 = 2 * c2 * (sqrt3 * c3 + c2)
        v_minus = (Decimal("7.5") - (quad + 8 * sqrt3 * c2 * c3)) / 4
        v_plus = quad / 2
        spin = Decimal(SPIN)
        xi2 = 2 * v_minus / spin
        return {
            "c2": c2, "c3": c3, "mean_s1": Decimal(0), "mean_s2": Decimal(0), "mean_s3": s3,
            "v_minus": v_minus, "v_plus": v_plus, "xi2": xi2, "chi2": spin / (2 * v_plus),
            "zeta2": (spin / s3) ** 2 * xi2 if s3 else None,
        }


def _bound(exact: Decimal, spin: float) -> float:
    return K * math.ulp(float(exact)) + C * EPS * (spin + 1.0) ** 2


def _zeta2_bound(exact_zeta2: Decimal, exact_length: Decimal, spin: float) -> float:
    propagated = float(exact_zeta2) * 2.0 * C * EPS * (spin + 1.0) ** 2 / float(exact_length)
    return _bound(exact_zeta2, spin) + propagated


def _excess(value: float, exact: Decimal, bound: float) -> float:
    """|value - exact| over the bound: at most 1 where the field holds."""
    return float(abs(Decimal(value) - exact)) / bound


@pytest.fixture(scope="module")
def family():
    """3,002 ratios in [0, 3] (the landmark sqrt(3) among them) and their exact fields."""
    samples = sweep_samples(0.0, 3.0, 3001)
    return samples, [_exact_family(t) for t in samples]


FLOAT_FIELDS = ("c2", "c3", "mean_s1", "mean_s2", "mean_s3", "v_minus", "v_plus", "xi2", "chi2")


def test_sweep_columns_match_exact_family(family):
    samples, exact = family
    columns = dict(zip(SWEEP_FIELDS, sweep_records(samples), strict=True))
    for name in FLOAT_FIELDS:
        for t, value, fields in zip(samples, columns[name].tolist(), exact, strict=True):
            assert _excess(value, fields[name], _bound(fields[name], SPIN)) <= 1.0, (
                name, t, value, fields[name]
            )
    for t, value, unbounded, fields in zip(
        samples, columns["zeta2"], columns["zeta2_unbounded"], exact, strict=True
    ):
        length = abs(fields["mean_s3"])
        if unbounded:
            # the sweep found |<S>| <= DEGENERACY_TOL; the exact mean must be
            # as small, up to the mean's round-off
            assert value is None and float(length) <= DEGENERACY_TOL + _bound(Decimal(0), SPIN)
        else:
            bound = _zeta2_bound(fields["zeta2"], length, SPIN)
            assert _excess(value, fields["zeta2"], bound) <= 1.0, (t, value, fields["zeta2"])


def test_closed_form_route_matches_exact_family(family):
    samples, exact = family
    for t, fields in zip(samples, exact, strict=True):
        c2, c3 = triphoton_amplitudes(t)
        v_minus, v_plus = analytic_variances(t)
        routed = {"c2": c2, "c3": c3, "mean_s3": analytic_mean_s3(t),
                  "v_minus": v_minus, "v_plus": v_plus}
        for name, value in routed.items():
            assert _excess(value, fields[name], _bound(fields[name], SPIN)) <= 1.0, (
                name, t, value, fields[name]
            )


def test_exact_family_landmarks():
    # the oracle itself at the paper's landmarks: the coherent point T = 0,
    # the squeezing optimum T = 1 and the flip of the mean at T = sqrt(3)
    with localcontext() as ctx:
        ctx.prec = 30
        at_zero, at_one = _exact_family(0.0), _exact_family(1.0)
        assert +at_zero["mean_s3"] == Decimal("1.5")
        assert +at_zero["xi2"] == +at_zero["chi2"] == +at_zero["zeta2"] == 1
        assert +at_one["v_minus"] == Decimal("0.25") and +at_one["v_plus"] == Decimal("1.75")
        assert +at_one["xi2"] == +(Decimal(1) / 3) and +at_one["chi2"] == +(Decimal(3) / 7)
    # the double nearest sqrt(3) leaves an exact <S3> of order its spacing
    assert 0.0 < abs(float(_exact_family(math.sqrt(3.0))["mean_s3"])) < 1e-15


def _exact_noon(num_photons: int) -> dict:
    """The NOON table's fields at N photons, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        spin = Decimal(num_photons) / 2
        return {
            "length": spin if num_photons == 1 else Decimal(0),
            "v_minus": spin / 2, "v_plus": spin * spin, "xi2": Decimal(1),
            "chi2": Decimal(1) / num_photons, "zeta2": Decimal(1) if num_photons == 1 else None,
        }


@pytest.mark.parametrize("num_photons", range(1, 9))
def test_noon_table_matches_exact_values(num_photons):
    spin = num_photons / 2
    state = noon_state(num_photons, FAMILY_NOON_PHASE)
    single = squeezing_report(state)
    (stacked,) = squeezing_reports(state.space, [state.amplitudes])
    exact = _exact_noon(num_photons)
    for report in (single, stacked):
        fields = {"length": report.mean.length, "v_minus": report.v_minus,
                  "v_plus": report.v_plus, "xi2": report.xi2, "chi2": report.chi2}
        for name, value in fields.items():
            assert _excess(value, exact[name], _bound(exact[name], spin)) <= 1.0, (
                name, value, exact[name]
            )
        if num_photons == 1:
            assert not report.zeta2_unbounded
            # |<S>| = s exactly, so only the round-off of xi^2 and |<S>| remains
            bound = _zeta2_bound(exact["zeta2"], exact["length"], spin)
            assert _excess(report.zeta2, exact["zeta2"], bound) <= 1.0
        else:
            assert report.zeta2_unbounded and report.zeta2 is None
            for value in report.mean.components.tolist():
                assert _excess(value, Decimal(0), _bound(Decimal(0), spin)) <= 1.0
