"""`_g12.g12_words` against `'%.12g' %`, value by value."""

import math
import sys
from fractions import Fraction

import numpy as np

from stokes_squeeze._g12 import _LOW, _POW10, G12_WORDS, g12_words
from test_cli import _DIGIT_TIES


def _rendered(values) -> list[bytes]:
    """The text g12_words writes for each value, one line each."""
    values = np.asarray(values, dtype=float)
    rows = np.zeros((values.size, G12_WORDS + 1), dtype="<u4")
    rows[:, -1] = np.frombuffer(b"\n\0\0\0", dtype="<u4")[0]
    g12_words(values, rows[:, :G12_WORDS])
    return rows.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def _assert_like_percent(values) -> None:
    values = np.asarray(values, dtype=float)
    got = _rendered(values)
    expected = [b"%.12g" % v for v in values.tolist()]
    if got != expected:
        wrong = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        raise AssertionError(
            f"{values[wrong]!r}: {got[wrong]!r} != {expected[wrong]!r} "
            f"({sum(a != b for a, b in zip(got, expected))} of {len(got)} differ)"
        )


def test_low_bound_is_the_first_double_from_1e_minus_34():
    assert Fraction(_LOW) >= Fraction(1, 10**34)
    assert Fraction(math.nextafter(_LOW, 0.0)) < Fraction(1, 10**34)


def test_powers_of_ten_are_nearest_doubles():
    assert len(_POW10) == 46
    for k, hi in enumerate(_POW10.tolist()):
        assert abs(Fraction(hi) - 10**k) <= Fraction(math.ulp(hi)) / 2


def test_million_log_uniform_values():
    rng = np.random.default_rng(20261018)
    _assert_like_percent(np.exp(rng.uniform(math.log(1e-13), math.log(10.0), 10**6)))


def test_million_log_uniform_values_down_to_1e_minus_34():
    rng = np.random.default_rng(20261019)
    _assert_like_percent(np.exp(rng.uniform(math.log(1e-34), math.log(10.0), 10**6)))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for j in range(-35, 2):
        # 10.0**j and the double nearest 10^j, which differ for some j < 0
        for power in {10.0**j, float(Fraction(10) ** j)}:
            values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
            values += [math.nextafter(math.nextafter(power, 0.0), 0.0), 9.5 * power]
            values.append(9.9999999999995 * power)
    _assert_like_percent(values)


def test_exact_ties_round_to_even():
    ties = [t for t in _DIGIT_TIES if _LOW <= t < 10.0]
    assert len(ties) > 100
    _assert_like_percent(ties)
    # both neighbours of each tie round away from it
    _assert_like_percent([math.nextafter(t, 0.0) for t in ties])
    _assert_like_percent([math.nextafter(t, 1.0) for t in ties])
    assert _rendered([2.0**-18]) == [b"3.81469726562e-06"]


def _rounding_ties(rng, exponent: int, count: int) -> list[Fraction]:
    """`count` ties (2D + 1)/2 10^(exponent - 11) of `%.12g`'s rounding, D of
    12 digits, with the first and last D.  Where 5^(11 - exponent) divides
    an odd 2D + 1 (exponent >= -6) the tie is k 2^(exponent - 12), a double,
    and only such ties are drawn."""
    step = 5 ** max(0, 11 - exponent)
    if step < 2 * 10**12:
        odd = [j * step for j in range(-(-(2 * 10**11 + 1) // step), 2 * 10**12 // step + 1)]
        odd = [n for n in odd if n % 2]
    else:
        odd = [2 * 10**11 + 1, 2 * 10**12 - 1]
        odd += [2 * int(d) + 1 for d in rng.integers(10**11, 10**12, count - 2)]
    picks = [odd[0], odd[-1]] + [odd[i] for i in rng.integers(0, len(odd), count - 2)]
    return [Fraction(n, 2) * Fraction(10) ** (exponent - 11) for n in picks]


def test_rounding_ties_at_every_exponent():
    # a tie below 10^-6 is no double: the doubles nearest it put the scaled
    # product within an ulp of a half, where only the exact sum decides
    rng = np.random.default_rng(20261019)
    values, exact = [], 0
    for exponent in range(-34, 1):
        for tie in _rounding_ties(rng, exponent, 60):
            nearest = float(tie)
            exact += Fraction(nearest) == tie
            values += [nearest, math.nextafter(nearest, 0.0), math.nextafter(nearest, 1.0)]
    assert exact == 7 * 60
    _assert_like_percent(values)


def test_named_values():
    values = [0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), 0.5, 0.1, 1e-4, 1e-5, 0.25]
    _assert_like_percent(values)
    assert _rendered([0.0, 1.0, 5e-324]) == [b"0", b"1", b"4.94065645841e-324"]


def test_values_outside_the_kernel_range():
    values = [
        -0.0, -1.0, -1e-5, _LOW, math.nextafter(_LOW, 0.0), 1e-12, 1e-35, 1e-300, 2.2e-308,
        9.9999999999995, math.nextafter(10.0, 0.0), 10.0, 12345.678, 1e22, 1e300,
        sys.float_info.max, math.inf, -math.inf, math.nan,
    ]
    _assert_like_percent(values)


def test_strided_output_rows():
    rng = np.random.default_rng(3)
    values = np.exp(rng.uniform(math.log(1e-13), 0.0, 500))
    block = np.zeros((values.size, 3 * G12_WORDS), dtype="<u4")
    g12_words(values, block[:, G12_WORDS : 2 * G12_WORDS])
    assert not block[:, :G12_WORDS].any() and not block[:, 2 * G12_WORDS :].any()
    strided = block[:, G12_WORDS : 2 * G12_WORDS]
    contiguous = np.zeros((values.size, G12_WORDS), dtype="<u4")
    g12_words(values, contiguous)
    np.testing.assert_array_equal(strided, contiguous)

