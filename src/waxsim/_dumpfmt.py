"""The dump's CSV lines, with every float spelled as ``repr`` spells it, a tile at a time.

``repr`` of a double is the shortest decimal that reads back to the same
double, and of those the closest to it (ties to an even last digit). They
are found for a whole array at once with the Schubfach algorithm (R.
Giulietti, "The Schubfach way to render doubles", 2020; ``Double.toString``
in Java 19 and later): three values, rounded to odd, bracket the double's
rounding interval in units of ``10**k``, and a few integer comparisons
choose the digits. Per value one product of a 126-bit power of ten ``g``
with the scaled significand is formed, as two exact 128-bit partial
products; the products of the interval's ends, which differ from it by a
power of two, add or subtract ``g`` shifted left, with explicit carries
and borrows. Every step is ``uint64`` array arithmetic, a 128-bit product
assembled from 32-bit halves; a wrapped product is only taken from arrays,
since numpy warns when a scalar integer operation overflows.

The digits are then laid out as ``repr`` does: exponent form
``d[.ddd]e±XX`` when the decimal point position ``decpt`` (the value is
``0.ddd * 10**decpt``) is at most -4 or above 16, positional form
(``0.000ddd``, ``ddd.ddd``, ``ddd00.0``) otherwise. A tile is cut into the
fewest equal blocks of at most ``BLOCK_ROWS`` lines, built as a row of uint64
words per line: the head and the run index; the comma, sign and prefix, a word
from a table; the digits, looked up four at a time, the point placed by
shifting the digits after it one byte on. Each row is stored a word at a time
at its line's offset, then the suffix (``e±XX``, newline): nothing is deleted.

Only normal doubles are handled (:func:`all_normal`): :func:`csv_lines`
hands a tile holding a zero, a subnormal, an infinity or a nan to ``repr``
itself. ``repr`` is the reference; the tests compare the two byte for byte.
"""
from __future__ import annotations

import functools

import numpy as np

# most lines formatted at once: about 275 B of scratch a line (traced), 3.4 MB in all
BLOCK_ROWS = 12288

# decimal exponents k of the interval brackets of normal doubles
K_MIN, K_MAX = -324, 292

_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW52 = _U(2**52 - 1)
_LOW63 = _U(2**63 - 1)
_HIDDEN = _U(2**52)
# decpt of normal doubles' shortest digits: k + 16 or k + 17
D_MIN, D_MAX = K_MIN + 16, K_MAX + 17
# a 128-bit integer per value: its high and its low 64 bits
_Wide = tuple[np.ndarray, np.ndarray]


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per k in ``[K_MIN, K_MAX]``: g's high and low 63 bits, and ``r + 127``.

    ``10**-k = beta * 2**r`` with ``2**125 <= beta < 2**126`` and
    ``g = floor(beta) + 1``, in exact integers; built on first use.
    """
    ks = range(K_MIN, K_MAX + 1)
    high = np.empty(len(ks), np.uint64)
    low = np.empty(len(ks), np.uint64)
    shift = np.empty(len(ks), np.int64)
    for i, k in enumerate(ks):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            beta = p >> r if r >= 0 else p << -r
        else:  # 2**(b-1) < 10**k < 2**b
            p = 10**k
            r = -(125 + p.bit_length())
            beta = (1 << -r) // p
        g = beta + 1
        high[i], low[i], shift[i] = g >> 63, g & (2**63 - 1), r + 127
    for table in (high, low, shift):
        table.flags.writeable = False
    return high, low, shift


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The tables of :func:`_x_field` and :func:`_block`, built on first use; read-only.

    Per v below 10,000: ``digits``, its ASCII digits; ``places[j]``, the place
    of its last nonzero digit as digit group j (-64 for 0). Per byte count b:
    ``low``, the words of a mask of the bytes below b. Per decpt - D_MIN:
    ``p``, ``m0`` (the least m), ``dot`` (the words of the character after
    digit p at byte p), the ``suffix`` and its ``size``; and per sign, ``lead``
    (the comma, sign and prefix but its last) and ``shift`` (8 times its length).
    """
    text = [f"{v:04d}" for v in range(10_000)]
    last = [len(v.rstrip("0")) or -64 for v in text]
    rows = []
    for decpt in range(D_MIN, D_MAX + 1):
        exp_form = decpt <= -4 or decpt > 16
        small = not exp_form and decpt <= 0  # 0.000ddd
        p = 1 if exp_form else max(decpt, 0)
        prefix = b"0.000"[: 2 - decpt] if small else b"."
        suffix = (f"e{decpt - 1:+03d}\n" if exp_form else "\n").encode("ascii")
        rows.append((p, 0 if exp_form or small else decpt + 1, len(suffix),
                     int.from_bytes(suffix, "little"), prefix[-1] << 8 * p, prefix[:-1]))
    p, m0, size, suffix, dot, prefix = zip(*rows)
    lead = [b"," + sign + t for sign in (b"", b"-") for t in prefix]
    # each digit group's first digit is at place 1, 5, 9, 13 or 14 (d17: 0001)
    ints = dict(places=np.add(last, [[0], [4], [8], [12], [13]]), p=p, m0=m0, size=size,
                shift=[8 * len(t) for t in lead])
    tables = {name: np.array(values, np.int64) for name, values in ints.items()}
    tables["digits"] = np.frombuffer("".join(text).encode("ascii"), "<u4").astype(np.uint64)
    tables["suffix"] = np.array(suffix, np.uint64)
    tables["lead"] = np.array([int.from_bytes(t, "little") for t in lead], np.uint64)
    for name, values in (("low", [2 ** (8 * b) - 1 for b in range(18)]), ("dot", dot)):
        tables[name] = np.array([[v >> 64 * j & 2**64 - 1 for v in values] for j in range(3)], _U)
    for table in tables.values():
        table.flags.writeable = False
    return tables


def all_normal(xs: np.ndarray) -> bool:
    """Whether every value is a normal double: no zero, subnormal, infinity or nan."""
    exponents = (xs.view(np.uint64) >> _U(52)) & _U(0x7FF)
    return xs.size == 0 or (exponents.min() >= 1 and exponents.max() <= 0x7FE)


def csv_lines(t_repr: str, first: int, xs: np.ndarray) -> str:
    """``"".join(f"{t_repr},{r},{x!r}\\n" for r, x in enumerate(xs, first))``.

    ``xs`` is a contiguous float64 array; the kernel spells it if it holds
    only normal doubles (:func:`all_normal`) and ``t_repr`` has at least 3
    characters, as a float's ``repr`` has, that f-string otherwise.
    """
    if len(t_repr) < 3 or not all_normal(xs):
        return "".join([f"{t_repr},{r},{x!r}\n" for r, x in enumerate(xs.tolist(), first)])
    k = -(-xs.size // BLOCK_ROWS)  # the fewest equal blocks of at most BLOCK_ROWS lines
    head, cuts = (t_repr + ",").encode("ascii"), [xs.size * i // k for i in range(k)] + [xs.size]
    return "".join(_block(head, first + a, xs[a:b]) for a, b in zip(cuts, cuts[1:]))


def _x_field(bits: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Each value's text from the comma on but the suffix, in three words:
    the lead, the digits below p, the character after digit p, and digits p
    to m one byte on; its length with the suffix; its suffix's size; its suffix."""
    t = _tables()
    f, decpt = _shortest(bits)
    # the 17 digits in groups d1-d4, d5-d8, d9-d12, d13-d16, d17; as ASCII in words w
    top, rest = _divmod(f, 10**9)
    mid, last = _divmod(rest, 10)
    g = [v.view(np.int64) for v in (*_divmod(top, 10_000), *_divmod(mid, 10_000), last)]
    w = [t["digits"].take(g[0]) | (t["digits"].take(g[1]) << _U(32)),
         t["digits"].take(g[2]) | (t["digits"].take(g[3]) << _U(32)), last + _U(ord("0"))]
    # significant digits: up to the last that is not 0
    count = functools.reduce(np.maximum, [t["places"][j].take(g[j]) for j in range(5)])
    d = decpt.astype(np.int64) - D_MIN
    p = t["p"].take(d)
    m = np.maximum(count, t["m0"].take(d))
    low = [table.take(m) for table in t["low"]]
    dot = [table.take(d) & mask for table, mask in zip(t["dot"], low)]
    a = [w[j] & t["low"][j].take(p) for j in range(2)]
    b = [(w[j] & low[j]) ^ a[j] for j in range(2)] + [w[2] & low[2]]
    a = [a[0] | dot[0] | (b[0] << _U(8)), a[1] | dot[1] | (b[1] << _U(8)) | (b[0] >> _U(56)),
         dot[2] | (b[2] << _U(8)) | (b[1] >> _U(56))]
    lead = d + (bits >> _U(63)).view(np.int64) * (D_MAX - D_MIN + 1)  # per sign and decpt
    s = t["shift"].take(lead)
    u, r = s.view(np.uint64), _U(64) - s.view(np.uint64)
    x = [t["lead"].take(lead) | (a[0] << u), (a[1] << u) | (a[0] >> r), (a[2] << u) | (a[1] >> r)]
    size = t["size"].take(d)
    # the lead, m digits, the point (none after a lone digit: 1e+16), the suffix
    length = (s >> 3) + m + 1 - (m == p) + size
    return x, length, size, t["suffix"].take(d)


def _block(head: bytes, first: int, xs: np.ndarray) -> str:
    """The lines of ``xs``, the first one with run index ``first``."""
    t = _tables()
    x, length, size, suffix = _x_field(xs.view(np.uint64))
    # a line's row: the head and the run index, right-aligned to end at word
    # k, then x; a line with g fewer run digits than the widest starts g on
    h, narrow, wide = len(head), len(str(first)), len(str(first + xs.size - 1))
    k = -(-(h + wide) // 8)
    g = 0 if wide == narrow else np.zeros(xs.size, np.int64)
    for e in range(narrow, wide):
        g[: 10**e - first] += 1
    row = [_U(0)] * k + x
    runs = np.arange(first, first + xs.size, dtype=np.uint64)
    for end in range(8 * k - 4, 8 * k - wide - 4, -4):
        runs, group = _divmod(runs, 10_000) if end > 8 * k - wide else (None, runs)
        row[end // 8] |= t["digits"].take(group.view(np.int64)) << _U(8 * (end % 8))
    heads = [int.from_bytes(head, "little") << 8 * (8 * k - h - j) for j in range(narrow, wide + 1)]
    masks = [-(1 << 8 * (8 * k - j)) % (1 << 64 * k) for j in range(narrow, wide + 1)]
    for i in range(k):
        word = [np.array([v >> 64 * i & 2**64 - 1 for v in c], np.uint64) for c in (heads, masks)]
        row[i] = word[0].take(wide - narrow - g) | (row[i] & word[1].take(wide - narrow - g))
    ends = np.cumsum(length + (h + wide - g))
    out = np.zeros((int(ends[-1]) >> 3) + len(row) + 4, "<u8")
    # each row from its line's offset on, 16 bytes into the buffer, then the
    # suffix; word j gets word j shifted and the spill of word j - 1, from
    # the last on. The words up to ``ored`` may hold the line before's last
    # bytes and are ORed in; the others hold their own line's bytes only (and
    # zeros), and are written, a later line in a later pass
    start = ends - length + (16 - 8 * k)
    pieces = (start, row, (7 + 8 * k - h - narrow) // 8), (ends + 16 - size, [suffix], 1)
    for start, words, ored in pieces:
        at, s = start >> 3, ((start & 7) << 3).view(np.uint64)
        r = _U(63) - s
        for j in range(len(words), -1, -1):
            word = (words[j - 1] >> _U(1)) >> r if j else 0
            word = word | (words[j] << s) if j < len(words) else word
            out[j:][at] = word if j > ored else out[j:][at] | word
    return str(memoryview(out.view(np.uint8)[16 : 16 + int(ends[-1])]), "ascii")


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``a // b`` and ``a % b``, by one division."""
    q = a // _U(b)
    return q, a - q * _U(b)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-closest decimals of normal doubles, given as their bit patterns.

    Returns ``f``, the digits as a 17-digit integer (the significant ones,
    then zeros), and ``decpt`` as int16: the value's magnitude is
    ``0.d1d2...d17 * 10**decpt``. One product with the power of ten is
    formed per value; the products of the interval's ends are exact sums of
    it with shifted copies of the power, so each bracket is :func:`_rop` of
    its own product.
    """
    high, low, shift = _powers()
    exponent = ((bits << _U(1)) >> _U(53)).view(np.int64)
    mantissa = bits & _LOW52
    c = mantissa | _HIDDEN
    q = exponent - 1075  # the value is c * 2**q
    # at a power of two the gap below is half the gap above, and the interval
    # is 3/4 of 2**q (not at the smallest normal, whose lower neighbour is subnormal)
    even_gaps = (mantissa != 0) | (exponent == 1)
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at a power of two
    k = (q * 661_971_961_083 + np.where(even_gaps, 0, -274_743_187_321)) >> 41
    table = k - K_MIN
    g1, g0 = high[table], low[table]
    h = (q + shift[table]).view(np.uint64)  # 1 to 4

    # the value is cp = 4c * 2**h in units of 2**(q-2-h), and the ends of its
    # rounding interval are cp + 2**(h+1) and cp - 2**(h+1) (cp - 2**h at a
    # power of two). g * cp is formed once, as the 128-bit products g1 * cp
    # and g0 * cp (g = g1 * 2**63 + g0); an end's products differ from them
    # by g1 and g0 shifted left, which is added with a carry or subtracted
    # with a borrow. Each bracket is then rop of exactly its own product.
    cp = c << (h + _U(2))
    cp_halves = _halves(cp)
    g1_cp = _mulhi(_halves(g1), cp_halves), g1 * cp
    g0_cp = _mulhi(_halves(g0), cp_halves), g0 * cp
    vb = _rop(g1_cp, g0_cp)
    up = h + _U(1)
    vbr = _rop(_plus(g1_cp, g1, up), _plus(g0_cp, g0, up))
    down = h + even_gaps
    vbl = _rop(_minus(g1_cp, g1, down), _minus(g0_cp, g0, down))
    # the interval's ends are in it when c is even (reading back rounds to
    # even): narrow it by one unit at each end when c is odd
    odd = c & _U(1)
    vbl += odd
    vbr -= odd

    s = vb >> _U(2)  # floor(value / 10**k), 16 or 17 digits
    sp10 = s // _U(10) * _U(10)
    # one digit fewer: at most one multiple of 10 fits the interval
    sp10_4 = sp10 << _U(2)
    upin = vbl <= sp10_4
    wpin = sp10_4 + _U(40) <= vbr
    # else s or t = s + 1, whichever alone fits, or the closer of the two
    # to the value, at the midpoint the even one: vb is 4s plus 0 to 3
    s_4 = s << _U(2)
    uin = vbl <= s_4
    win = s_4 + _U(4) <= vbr
    past_mid = (vb & _U(3)) + (s & _U(1)) > _U(2)
    pick_t = (win & ~uin) | (past_mid & (uin == win))
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + pick_t)
    # as 17 digits: f has 16 or 17
    short = f < _U(10**16)
    decpt = k.astype(np.int16) + np.int16(17) - short.view(np.int8)
    return np.where(short, f * _U(10), f), decpt


def _rop(g1_cp: _Wide, g0_cp: _Wide) -> np.ndarray:
    """``floor(g * cp / 2**127)``, rounded to odd when the division is inexact.

    Takes ``g1 * cp`` and ``g0 * cp`` as :data:`_Wide`. The bits
    of ``g0 * cp`` below 2**64 and the lowest bit of ``g1 * cp`` do not reach
    the result (Giulietti, figure 5).
    """
    (y1, y0), (x1, _) = g1_cp, g0_cp
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z & _LOW63) != 0)


def _plus(product: _Wide, g: np.ndarray, s: np.ndarray) -> _Wide:
    """``product + (g << s)``, with the carry out of the low half; 0 < s < 64."""
    high, low = product
    total = low + (g << s)
    return high + (g >> (_U(64) - s)) + (total < low), total


def _minus(product: _Wide, g: np.ndarray, s: np.ndarray) -> _Wide:
    """``product - (g << s)``, with the borrow out of the low half; 0 < s < 64."""
    high, low = product
    rest = low - (g << s)
    return high - (g >> (_U(64) - s)) - (rest > low), rest


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and the high 32 bits of each value."""
    return a & _LOW32, a >> _U(32)


def _mulhi(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The high 64 bits of each 128-bit product of two values given as :func:`_halves`.

    ``a`` is at most 2**63 and ``b`` below 2**59, so the sum of the cross
    products stays below 2**64.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    cross = a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> _U(32))
    return a_hi * b_hi + (cross >> _U(32))
