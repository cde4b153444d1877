"""Shortest round-trip text of float64 arrays, computed over the array at once.

`reprs(x)` returns `[repr(float(v)) for v in x]`.  CPython's `repr` finds the
shortest decimal that reads back as the double, the closest one when several
are that short, with a bignum dtoa per value.  Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) finds the same digits from three
128-bit products per value: the double and both ends of its rounding interval,
scaled by an exact 126-bit approximation of 10^-k.  Here the products run in
uint64 numpy over 32-bit halves, a chunk of the array at a time, and each
chunk's text is laid out by repr's rule in one byte buffer, its digits looked
up four at a time.

Zeros, subnormals, infinities and NaN, rare in artifacts, are left to `repr`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reprs"]

# Values per chunk: bounds the working arrays to a few hundred kB.
_CHUNK = 1 << 12
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(0x7FFFFFFFFFFFFFFF)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_SPACES = np.frombuffer(b"    ", dtype=np.uint32)[0]

# A row of text is 11 words of 4 bytes.  Words 0-4 hold 19 integer digits,
# right-aligned, and the point; words 5-9 hold 20 fraction digits, left-aligned;
# word 10 is spaces.  Digits not shown are spaces too, which `split()` drops; a
# sign takes the space before the first digit, an exponent follows the last one.
_WIDTH, _POINT = 44, 19


def _tables():
    """The 4-byte words of text: per g < 10^4 its 4 digits (`_DIGITS`); per g < 10^3
    its 3 digits and the point (`_POINTED`); per c <= 4 the masks that keep the first
    c (`_KEEP_FIRST`) or the last c bytes (`_KEEP_LAST`) of a word; how many trailing
    zeros g has (`_TRAILING`, 4 for 0); and per exponent e >= -324 the 5 bytes of
    "e+XX" in column e + 324 (`_EXPONENTS`)."""
    digits = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy()
    pointed = np.column_stack([digits[:1000, 1:], np.full(1000, ord("."), dtype=np.uint8)])
    c = np.arange(5)[:, None]
    first = ((np.arange(4) < c) * 0xFF).astype(np.uint8)
    trailing = sum(np.arange(10_000) % 10 ** i == 0 for i in range(1, 5)).astype(np.uint8)
    exponents = np.array([f"e{e:+03d}".ljust(5) for e in range(-324, 309)], dtype="S5")
    return (digits.view(np.uint32).reshape(-1), pointed.view(np.uint32).reshape(-1),
            first.view(np.uint32).reshape(-1), first[:, ::-1].copy().view(np.uint32).reshape(-1),
            trailing, np.ascontiguousarray(exponents.view(np.uint8).reshape(-1, 5).T))


_DIGITS, _POINTED, _KEEP_FIRST, _KEEP_LAST, _TRAILING, _EXPONENTS = _tables()
# Per count of digits shown, each group's mask: fraction groups start 0, 4, ... digits
# after the point, integer groups end 15, 11, 7, 3 and 0 digits before it.
_FRACTION_KEEP = _KEEP_FIRST[np.clip(np.arange(21) - np.arange(0, 20, 4)[:, None], 0, 4)]
_WHOLE_KEEP = _KEEP_LAST[np.clip(np.arange(17) - np.arange(15, 2, -4)[:, None], 0, 4)]
_POINTED_KEEP = _KEEP_LAST[np.minimum(np.arange(17), 3) + 1]  # and the point
_LAST = np.arange(4, 24, 4)[:, None]  # each fraction group's last digit, from 1


def _blank(words, keep):
    """The words with the bytes that `keep` masks off turned to spaces."""
    return words & keep | _SPACES & ~keep


def _flog10pow2(e):
    """floor(e log10 2), exact for |e| <= 2000 (a double's e is -1074...971)."""
    return (e * 661_971_961_083) >> 41


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1300."""
    return (e * 913_124_641_741) >> 38


def _multipliers(k, table: dict):
    """The 32-bit halves (g1 >> 32, g1 & M, g0 >> 32, g0 & M), and g1, per entry of
    k, where g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 and 2^125 <= g < 2^126.
    `table` keeps (g1, g0) by k, each computed once in exact integers."""
    k0 = int(k.min())
    ks = range(k0, int(k.max()) + 1)
    for kk in ks:
        if kk not in table:
            r = _flog2pow10(-kk) - 125
            g = (10 ** max(-kk, 0) << max(-r, 0)) // (10 ** max(kk, 0) << max(r, 0)) + 1
            table[kk] = divmod(g, 1 << 63)
    at = k - k0
    g1 = np.array([table[kk][0] for kk in ks], dtype=np.uint64).take(at)
    g0 = np.array([table[kk][1] for kk in ks], dtype=np.uint64).take(at)
    return (g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32), g1


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the 128-bit products a b, from their 32-bit halves."""
    mid = ah * bl + ((al * bl) >> 32)
    return ah * bh + (mid >> 32) + ((al * bh + (mid & _M32)) >> 32)


def _rop(g, g1, cp):
    """cp g / 2^127 rounded to odd (odd when not exact), g as from `_multipliers`."""
    g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _decimal(bits, table: dict):
    """Shortest, closest, ties-to-even digits f and exponent k, with f 10^k the normal
    double of each of `bits` (sign bit clear); `table` as for `_multipliers`."""
    bq = (bits >> 52).astype(np.int64)
    t = bits & np.uint64((1 << 52) - 1)
    c = t | np.uint64(1 << 52)
    q = bq - 1075
    # a power of two above the smallest binade has a gap below half that above it
    irregular = (t == 0) & (bq > 1)
    # k = floor(log10 of 2^q, or of 3/4 2^q when irregular), both exact for |q| <= 2000
    k = np.where(irregular, (q * 661_971_961_083 - 274_743_187_321) >> 41, _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g, g1 = _multipliers(k, table)
    cb = c << 2
    vb = _rop(g, g1, cb << h)
    vbl = _rop(g, g1, (cb - 2 + irregular) << h)
    vbr = _rop(g, g1, (cb + 2) << h)
    out = c & 1  # an even significand's interval includes its ends
    # one digit fewer: u' = 10 floor(s / 10) or w' = u' + 10, when exactly one is in range
    s = vb >> 2
    sp = s // 10 * 10
    upin = vbl + out <= sp << 2
    wpin = ((sp + 10) << 2) + out <= vbr
    # else u = s or w = s + 1, whichever is in range, or closer, or even
    uin = vbl + out <= s << 2
    win = ((s + 1) << 2) + out <= vbr
    mid = (2 * s + 1) << 1
    pick_u = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    return np.where(upin != wpin, sp + wpin * np.uint64(10), s + ~pick_u), k


def _groups(x, count: int):
    """x's last 4 count digits as `count` rows of groups of 4 digits, first to last."""
    groups = np.empty((count, x.size), dtype=np.int64)
    for j in range(count - 1, -1, -1):
        q = x // np.uint64(10_000)
        groups[j] = x - q * np.uint64(10_000)
        x = q
    return groups


def _layout(neg, f, k) -> bytes:
    """One `_WIDTH`-byte row of ASCII text per value: its repr, amid spaces."""
    size = np.searchsorted(_POW10, f, side="right")
    point = k + size  # the value is 0.<digits> 10^point
    # repr's rule: fixed notation for 1e-4 <= |v| < 1e16, else d[.ddd]e+XX
    sci = (point < -3) | (point > 16)
    lay = np.where(sci, 1, point)  # digits before the point, or minus the zeros after it
    whole = np.maximum(lay, 1)  # integer digits shown: 0.000ddd has one
    f = f * _POW10[17 - size]  # 17 digits
    integer = np.where(lay > 0, f // _POW10[17 - whole], 0)
    rest = f - integer * _POW10[17 - whole]  # the fraction, 17 - lay digits
    # the fraction as 20 digits: its first 4, and its last 16
    e = 13 - lay
    up = _POW10[np.maximum(e, 0)]
    head = np.where(e >= 0, rest // up, rest * _POW10[np.maximum(-e, 0)])
    tail = np.where(e >= 0, (rest - head * up) * _POW10[16 - np.maximum(e, 0)], 0)
    fraction = np.empty((5, f.size), dtype=np.int64)
    fraction[0] = head
    fraction[1:] = _groups(tail, 4)
    # fraction digits shown: up to the last non-zero one, and one at least in fixed notation
    shown = np.max((_LAST - _TRAILING.take(fraction)) * (fraction != 0), axis=0)
    shown = np.where(sci, shown, np.maximum(shown, 1))
    text = np.empty((f.size, _WIDTH), dtype=np.uint8)
    words = text.view(np.uint32)
    words[:, :4] = _blank(_DIGITS.take(_groups(integer // np.uint64(1000), 4)),
                          _WHOLE_KEEP.take(whole, axis=1)).T
    words[:, 4] = _blank(_POINTED.take(integer % np.uint64(1000)), _POINTED_KEEP.take(whole))
    words[:, 5:10] = _blank(_DIGITS.take(fraction), _FRACTION_KEEP.take(shown, axis=1)).T
    words[:, 10] = _SPACES
    flat = text.reshape(-1)
    row = np.arange(0, text.size, _WIDTH)
    flat[(row + _POINT - 1 - whole)[neg]] = ord("-")
    # the exponent follows the last fraction digit, or takes the point's place
    at = (row + _POINT + shown + (shown > 0))[sci]
    flat[np.arange(5)[:, None] + at] = _EXPONENTS.take(point[sci] + 323, axis=1)
    return text.tobytes()


def reprs(x) -> list[str]:
    """`[repr(float(v)) for v in x]` for a float64 array `x`."""
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    texts, table = [], {}
    for start in range(0, x.size, _CHUNK):
        bits = x[start:start + _CHUNK].view(np.uint64)
        neg = bits >> 63 == 1
        bits = bits & _M63
        bq = bits >> 52
        other = (bq == 0) | (bq == 0x7FF)  # zero, subnormal, inf or nan
        bits[other] = np.uint64(0x3FF0000000000000)  # 1.0 holds their rows
        row_texts = _layout(neg, *_decimal(bits, table)).decode("ascii").split()
        for i in np.flatnonzero(other).tolist():
            row_texts[i] = repr(float(x[start + i]))
        texts += row_texts
    return texts
