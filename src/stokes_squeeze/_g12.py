"""`'%.12g' % x` for an array of floats, byte for byte, in numpy.

`g12_words(values, out)` writes the text of each value into one row of six
little-endian uint32 words, 24 bytes padded with NUL bytes where the text is
shorter; removing the NULs (`bytes.translate(None, b"\\0")`) leaves exactly
the `%.12g` text.  The husimi CSV writer renders its Q column this way.

Values x in [10^-34, 10) are rendered in numpy:

* e = floor(log10 x), then k = 11 - e lies in 11..45, and p = fl(x hi)
  with hi the double nearest 10^k (hi = 10^k up to k = 22, where 5^k <
  2^53).  p is within ulp(p)/2 <= 2^-14 of x hi, and x hi is within 2^-13
  of x 10^k, so p is within 2^-12 of x 10^k; where no k exceeds 22, p is
  x 10^k rounded once.
* The 12 significant digits D are `np.rint(p)`, x 10^k rounded to the
  nearest integer, ties to even, wherever p decides them: p lies more than
  that slack inside (10^11, 10^12), so e was right, and not within it of a
  half (the slack is 0 where every k <= 22, leaving only p = 10^11, 10^12
  or a fraction of exactly 1/2 open).
  D = 10^12 becomes 10^11, e + 1.  The cells p does not decide, a few
  dozen at most in a map, are rendered by `'%.12g' %` like the values below.
* The text follows `%g`: fixed notation for -4 <= e <= 0 ("0." and -e-1
  zeros before the digits), "d.ddde-XX" below that, trailing zeros (and a
  point with nothing after it) removed.  D is four groups of three digits,
  each rendered by a 1000-entry word table; the second half of each table
  holds the group with its trailing zeros turned to NULs, used where every
  later group is zero.

Every other value, +0.0 aside (it is "0"), is rendered by `'%.12g' %` one
by one into its row: values below 10^-34, at or above 10 after rounding,
negative, not finite, or undecided by p.
"""

from __future__ import annotations

import math

import numpy as np

#: uint32 words of one rendered value; every `%.12g` text of a float fits
G12_WORDS = 6

#: the smallest double that is at least 10^-34 (the double nearest 1e-34 lies
#: just below it): the exponent words run down to e = -34
_LOW = math.nextafter(1e-34, 1.0)
_HIGH = 10.0

#: |x 10^k - fl(x hi)| stays below this: ulp(p)/2 <= 2^-14 for p < 2^40,
#: and |x (10^k - hi)| <= x hi 2^-53 < 2^-13 (0 for k <= 22)
_SLACK = 2.0**-12

#: the double nearest 10^k for k = 0..45, exact up to k = 22
_POW10 = np.array([float(10**k) for k in range(46)])


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of four byte codes (0 for NUL) as little-endian uint32 words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view("<u4").ravel()


def _group_chars() -> tuple[np.ndarray, np.ndarray]:
    """The three digit codes of each group g = 0..999, as written and with
    trailing zeros turned to NUL, shape (1000, 3) each."""
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10], axis=1)
    # a digit is kept when it or a later digit of the group is nonzero
    kept = np.cumsum(digits[:, ::-1] != 0, axis=1)[:, ::-1] > 0
    chars = (digits + ord("0")).astype(np.uint8)
    return chars, np.where(kept, chars, 0)


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """(groups, leads): words of groups 2..4 (index g, or g + 1000 with
    trailing zeros removed) and of group 1 (index g + 1000 strip + 2000
    form): "d.dd" in form 0 (e = 0 or exponent form), NUL and "ddd" in form 1
    (-3 <= e <= -1), "0ddd" in form 2 (e = -4: the last of the zeros after
    "0.").  The first digit of "d.dd" always shows; its point goes with the
    digits after it."""
    full, stripped = _group_chars()
    nul = np.zeros((1000, 1), np.uint8)
    groups = [np.hstack([chars, nul]) for chars in (full, stripped)]
    leads = []
    for form in range(3):
        for chars in (full, stripped):
            if form == 0:
                point = np.where(chars[:, 1:2] != 0, ord("."), 0).astype(np.uint8)
                leads.append(np.hstack([full[:, :1], point, chars[:, 1:]]))
            else:
                leads.append(np.hstack([nul + (ord("0") if form == 2 else 0), chars]))
    return _words(np.vstack(groups)), _words(np.vstack(leads))


_GROUPS, _LEADS = _tables()


def _byte_words(texts) -> np.ndarray:
    """One little-endian uint32 word per text of at most 4 bytes, NUL-padded."""
    return np.frombuffer(b"".join(text.ljust(4, b"\0") for text in texts), dtype="<u4")


#: per exponent e = -34..1, at index e + 34: the word before the digits, the
#: form of the first group and the exponent word
_EXPONENTS = range(-34, 2)
_PREFIXES = _byte_words(
    [b"0." + b"0" * min(-e - 1, 2) if -4 <= e < 0 else b"" for e in _EXPONENTS]
)
_FORMS = np.array([(2 if e == -4 else 1) if -4 <= e < 0 else 0 for e in _EXPONENTS])
_SUFFIXES = _byte_words([b"e-%02d" % -e if e < -4 else b"" for e in _EXPONENTS])
_ZERO = _byte_words([b"", b"0", b"", b"", b"", b""])


def g12_words(values: np.ndarray, out: np.ndarray) -> None:
    """Write `'%.12g' % v` of each float in the 1-D `values` into the rows
    of `out`, a (len(values), G12_WORDS) '<u4' array or view, NUL-padded."""
    x = np.asarray(values, dtype=float)
    inside = (x >= _LOW) & (x < _HIGH)
    xs = np.where(inside, x, 2.0)  # a placeholder that p decides
    e = np.floor(np.log10(xs)).astype(np.intp)
    np.clip(e, -34, 0, out=e)
    p = xs * _POW10.take(11 - e)
    digits = np.rint(p)  # ties to even, right wherever p decides
    # p decides the range and the digits unless it lies within the slack of
    # 10^11, 10^12 or a half; where no k exceeds 22 the slack is 0: p is
    # x 10^k rounded, and only p = 10^11, 10^12 or a fraction of 1/2 is open
    slack = _SLACK if (e < -11).any() else 0.0
    undecided = np.abs(digits - p) >= 0.5 - slack
    undecided |= (p <= 1e11 + slack) | (p >= 1e12 - slack)
    digits = digits.astype(np.int64)
    carry = digits == 10**12
    digits[carry] = 10**11
    e += carry
    high = digits // 1000000
    low = digits - high * 1000000
    g1 = high // 1000
    g2 = high - g1 * 1000
    g3 = low // 1000
    g4 = low - g3 * 1000
    # a group is stripped of trailing zeros where every later group is zero
    zero4 = g4 == 0
    zero34 = zero4 & (g3 == 0)
    zero234 = zero34 & (g2 == 0)
    row = e + 34
    out[:, 0] = _PREFIXES[row]
    out[:, 1] = _LEADS[g1 + 1000 * zero234 + 2000 * _FORMS[row]]
    out[:, 2] = _GROUPS[g2 + 1000 * zero34]
    out[:, 3] = _GROUPS[g3 + 1000 * zero4]
    out[:, 4] = _GROUPS[g4 + 1000]
    out[:, 5] = _SUFFIXES[row]
    other = np.flatnonzero(~inside | (e > 0) | undecided)
    if other.size:
        rest = x[other]
        zero = (rest == 0.0) & ~np.signbit(rest)
        out[other[zero]] = _ZERO
        rest, other = rest[~zero], other[~zero]
        texts = ["%.12g" % v for v in rest.tolist()]
        out[other] = np.array(texts, dtype=f"S{4 * G12_WORDS}").view("<u4").reshape(-1, G12_WORDS)
