"""`'%.12g' % x` for an array of floats, byte for byte, in numpy.

`g12_words(values, out)` writes the text of each value into one row of six
little-endian uint32 words, 24 bytes padded with NUL bytes where the text is
shorter; removing the NULs (`bytes.translate(None, b"\\0")`) leaves exactly
the `%.12g` text.  The husimi CSV writer renders its Q column this way.

Values x in [10^-11, 10) are rendered in numpy:

* e = floor(log10 x), then k = 11 - e lies in 11..22, so 10^k is an exact
  double.  Dekker's split and two-product give p + err = x 10^k exactly
  (numpy rounds every product and sum on its own: no fused multiply-add).
  Where the exact product is outside [10^11, 10^12), log10 was off by one
  next to a power of ten, and e is corrected by one step.
* The 12 significant digits D are x 10^k rounded to the nearest integer,
  ties to even, decided exactly.  p = fl(x 10^k) is a multiple of ulp(p)
  and within ulp(p)/2 of x 10^k, so f = p - floor(p) (exact) decides by
  itself unless f = 1/2: there the sign of err decides, and an exact tie
  (err = 0) takes the even neighbour, as `np.rint(p)` does everywhere
  else.  The two-product runs on those cells and on p = 10^11 or 10^12
  only.  D = 10^12 becomes 10^11, e + 1.
* The text follows `%g`: fixed notation for -4 <= e <= 0 ("0." and -e-1
  zeros before the digits), "d.ddde-XX" below that, trailing zeros (and a
  point with nothing after it) removed.  D is four groups of three digits,
  each rendered by a 1000-entry word table; the second half of each table
  holds the group with its trailing zeros turned to NULs, used where every
  later group is zero.

Every other value, +0.0 aside (it is "0"), is rendered by `'%.12g' %` one
by one into its row: values below 10^-11 (Q of highly peaked maps), at or
above 10 after rounding, negative, or not finite.
"""

from __future__ import annotations

import math

import numpy as np

#: uint32 words of one rendered value; every `%.12g` text of a float fits
G12_WORDS = 6

#: the smallest double that is at least 10^-11 (the double nearest 1e-11 lies
#: just below it): from there on 10^(11-e) is exact
_LOW = math.nextafter(1e-11, 1.0)
_HIGH = 10.0

#: Dekker's splitter 2^27 + 1
_SPLITTER = 134217729.0


def _split(a):
    """(hi, lo) with hi + lo = a exactly, each of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


#: 10^k for k = 0..22, each exact (5^22 < 2^53), and its Dekker halves
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)


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


#: per exponent e = -11..1, at index e + 11: the word before the digits, the
#: form of the first group and the exponent word
_EXPONENTS = range(-11, 2)
_PREFIXES = _byte_words(
    [b"0." + b"0" * min(-e - 1, 2) if -4 <= e < 0 else b"" for e in _EXPONENTS]
)
_FORMS = np.array([(2 if e == -4 else 1) if -4 <= e < 0 else 0 for e in _EXPONENTS])
_SUFFIXES = _byte_words([b"e-%02d" % -e if e < -4 else b"" for e in _EXPONENTS])
_ZERO = _byte_words([b"", b"0", b"", b"", b"", b""])


def _two_product(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p = fl(x 10^k) and p + err = x 10^k exactly."""
    p = x * _POW10.take(k)
    x_hi, x_lo = _split(x)
    y_hi, y_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    err = x_hi * y_hi - p
    err += x_hi * y_lo
    err += x_lo * y_hi
    err += x_lo * y_lo
    return p, err


def g12_words(values: np.ndarray, out: np.ndarray) -> None:
    """Write `'%.12g' % v` of each float in the 1-D `values` into the rows
    of `out`, a (len(values), G12_WORDS) '<u4' array or view, NUL-padded."""
    x = np.asarray(values, dtype=float)
    inside = (x >= _LOW) & (x < _HIGH)
    xs = np.where(inside, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.intp)
    np.clip(e, -11, 0, out=e)
    p = xs * _POW10.take(11 - e)
    # p is within ulp(p)/2 <= 2^-14 of the exact product, a multiple of that
    # ulp, so only p = 10^11, p = 10^12 and a fraction of exactly 1/2 need
    # the exact error to decide the range and the rounding
    whole = np.floor(p)
    frac = p - whole
    exact = np.flatnonzero((p < 1e11) | (p >= 1e12) | (p == 1e11) | (frac == 0.5))
    digits = np.rint(p)  # ties to even, right wherever err = 0
    if exact.size:
        p_x, err = _two_product(xs[exact], 11 - e[exact])
        below = (p_x < 1e11) | ((p_x == 1e11) & (err < 0))
        above = (p_x > 1e12) | ((p_x == 1e12) & (err >= 0))
        if below.any() or above.any():
            # log10 was one off next to a power of ten
            e[exact] += above.astype(np.intp) - below
            p_x, err = _two_product(xs[exact], 11 - e[exact])
        whole_x = np.floor(p_x)
        tie = p_x - whole_x == 0.5
        digits[exact] = np.where(tie & (err != 0), whole_x + (err > 0), np.rint(p_x))
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
    row = e + 11
    out[:, 0] = _PREFIXES[row]
    out[:, 1] = _LEADS[g1 + 1000 * zero234 + 2000 * _FORMS[row]]
    out[:, 2] = _GROUPS[g2 + 1000 * zero34]
    out[:, 3] = _GROUPS[g3 + 1000 * zero4]
    out[:, 4] = _GROUPS[g4 + 1000]
    out[:, 5] = _SUFFIXES[row]
    other = np.flatnonzero(~inside | (e > 0))
    if other.size:
        rest = x[other]
        zero = (rest == 0.0) & ~np.signbit(rest)
        out[other[zero]] = _ZERO
        rest, other = rest[~zero], other[~zero]
        texts = ["%.12g" % v for v in rest.tolist()]
        out[other] = np.array(texts, dtype=f"S{4 * G12_WORDS}").view("<u4").reshape(-1, G12_WORDS)
