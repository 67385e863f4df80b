"""`'%.12g' % x` for an array of floats, byte for byte, in numpy.

`g12_words(values, out)` writes the text of each value into one row of six
little-endian uint32 words, 24 bytes padded with NUL bytes where the text is
shorter; removing the NULs (`bytes.translate(None, b"\\0")`) leaves exactly
the `%.12g` text.  The husimi CSV writer renders its Q column this way.

Values x in [10^-34, 10) are rendered in numpy:

* e = floor(log10 x), then k = 11 - e lies in 11..45.  10^k = 2^k 5^k and
  5^k has at most 105 bits, so 10^k is a double-double hi + lo exactly (lo
  = 0 up to k = 22, where 5^k < 2^53).  Dekker's split and two
  two-products give x 10^k as the exact sum of four doubles, fl(x hi)
  first (numpy rounds every product and sum on its own: no fused
  multiply-add).  Where the exact product is outside [10^11, 10^12), log10
  was off by one next to a power of ten, and e is corrected by one step.
* The 12 significant digits D are x 10^k rounded to the nearest integer,
  ties to even, decided exactly.  p = fl(x hi) is a multiple of ulp(p), and
  it is within ulp(p)/2 <= 2^-14 of x hi and within 2^-12 of x 10^k.  So
  `np.rint(p)` is D unless p lies within that slack of a half (where lo =
  0 for every value of the call, p is x 10^k rounded, and only a fraction
  of exactly 1/2 is open): there the exact sign of the four-term sum less
  floor(p) + 1/2, by Shewchuk's expansion arithmetic, decides, and an
  exact tie takes the even neighbour.  The two-products run on those cells
  and on p within the slack of 10^11 or 10^12 only.  D = 10^12 becomes
  10^11, e + 1.
* The text follows `%g`: fixed notation for -4 <= e <= 0 ("0." and -e-1
  zeros before the digits), "d.ddde-XX" below that, trailing zeros (and a
  point with nothing after it) removed.  D is four groups of three digits,
  each rendered by a 1000-entry word table; the second half of each table
  holds the group with its trailing zeros turned to NULs, used where every
  later group is zero.

Every other value, +0.0 aside (it is "0"), is rendered by `'%.12g' %` one
by one into its row: values below 10^-34, at or above 10 after rounding,
negative, or not finite.
"""

from __future__ import annotations

import math

import numpy as np

#: uint32 words of one rendered value; every `%.12g` text of a float fits
G12_WORDS = 6

#: the smallest double that is at least 10^-34 (the double nearest 1e-34 lies
#: just below it): from there on 10^(11-e) is a double-double
_LOW = math.nextafter(1e-34, 1.0)
_HIGH = 10.0

#: Dekker's splitter 2^27 + 1
_SPLITTER = 134217729.0

#: |x 10^k - fl(x hi)| stays below this: ulp(p)/2 <= 2^-14 for p < 2^40,
#: and |x lo| <= x hi 2^-53 < 2^-13 (x lo = 0 for k <= 22)
_SLACK = 2.0**-12


def _split(a):
    """(hi, lo) with hi + lo = a exactly, each of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


#: 10^k = hi + lo exactly for k = 0..45: hi is the double nearest 10^k and
#: lo the rest, an integer of at most 51 bits (0 where 10^k is a double)
_POW10 = np.array([float(10**k) for k in range(46)])
_POW10_LO = np.array([float(10**k - int(float(10**k))) for k in range(46)])


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


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p = fl(a b) and p + err = a b exactly."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = a_hi * b_hi - p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    return p, err


def _product_terms(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """Four doubles whose exact sum is x 10^k, fl(x hi) first."""
    return (*_two_product(x, _POW10.take(k)), *_two_product(x, _POW10_LO.take(k)))


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, err) with s = fl(a + b) and s + err = a + b exactly (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _sum_sign(*terms: np.ndarray) -> np.ndarray:
    """The sign (-1, 0 or 1) of the exact sum of the float arrays `terms`.

    Shewchuk's grow-expansion adds each term by exact two-sums into a
    nonoverlapping expansion, its components in increasing magnitude apart
    from zeros; the sign of such a sum is that of its largest nonzero
    component.
    """
    expansion = []
    for term in terms:
        grown = []
        for component in expansion:
            term, rest = _two_sum(term, component)
            grown.append(rest)
        expansion = [*grown, term]
    sign = np.zeros(np.shape(terms[0]))
    for component in expansion:
        sign = np.where(component != 0.0, np.sign(component), sign)
    return sign


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
    # p = fl(x hi) is a multiple of ulp(p) <= 2^-13 within _SLACK of x 10^k,
    # so it decides the range and the digits unless it lies within the
    # slack of 10^11, 10^12 or a half.  Where every lo is 0 the slack is 0:
    # p is x 10^k rounded, and only p = 10^11, 10^12 or a fraction of 1/2
    # is open
    slack = _SLACK if (e < -11).any() else 0.0
    near_half = np.abs(digits - p) >= 0.5 - slack
    exact = np.flatnonzero(near_half | (p <= 1e11 + slack) | (p >= 1e12 - slack))
    if exact.size:
        terms = _product_terms(xs[exact], 11 - e[exact])
        p_x = terms[0]
        if ((p_x <= 1e11 + slack) | (p_x >= 1e12 - slack)).any():
            # x 10^k against the nearer of 10^11 and 10^12: p minus that
            # bound is exact (Sterbenz) where p <= 2 10^11 or p >= 5.5 10^11,
            # and at least 10^11 in between, far beyond the other terms
            bound = np.where(p_x < 5.5e11, 1e11, 1e12)
            side = _sum_sign(p_x - bound, *terms[1:])
            below = (bound == 1e11) & (side < 0)
            above = (bound == 1e12) & (side >= 0)
            if below.any() or above.any():
                # log10 was one off next to a power of ten
                e[exact] += above.astype(np.intp) - below
                terms = _product_terms(xs[exact], 11 - e[exact])
        # x 10^k lies within the slack of [whole_x, whole_x + 1]: the side of
        # whole_x + 1/2 decides (p - whole_x - 1/2 is exact), a tie takes the
        # even one
        whole_x = np.floor(terms[0])
        side = _sum_sign(terms[0] - whole_x - 0.5, *terms[1:])
        digits[exact] = np.where(side == 0, np.rint(whole_x + 0.5), whole_x + (side > 0))
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
    other = np.flatnonzero(~inside | (e > 0))
    if other.size:
        rest = x[other]
        zero = (rest == 0.0) & ~np.signbit(rest)
        out[other[zero]] = _ZERO
        rest, other = rest[~zero], other[~zero]
        texts = ["%.12g" % v for v in rest.tolist()]
        out[other] = np.array(texts, dtype=f"S{4 * G12_WORDS}").view("<u4").reshape(-1, G12_WORDS)
