"""The dump's CSV lines, with every float spelled as ``repr`` spells it, a tile at a time.

``repr`` of a double is the shortest decimal that reads back to the same
double, and of those the closest to it (ties to an even last digit). This
module finds those digits for a whole array at once with the Schubfach
algorithm (R. Giulietti, "The Schubfach way to render doubles", 2020; the
algorithm of ``Double.toString`` in Java 19 and later): three values,
rounded to odd, bracket the double's rounding interval in units of
``10**k``, and a few integer comparisons choose the digits. The brackets
are products of a 126-bit power of ten ``g`` with the scaled significand
and with the interval's two ends, which differ from it by a power of two;
so per value one product is formed, as two exact 128-bit partial products,
and each end's product is derived from it by adding or subtracting ``g``
shifted left, with explicit carries and borrows. Every step is ``uint64``
array arithmetic; a 128-bit product is assembled from 32-bit halves, and a
wrapped product is only ever taken from arrays, since numpy warns when a
scalar integer operation overflows.

The digits are then laid out as ``repr`` does: exponent form
``d[.ddd]e±XX`` when the decimal point position ``decpt`` (the value is
``0.ddd * 10**decpt``) is at most -4 or above 16, positional form
(``0.000ddd``, ``ddd.ddd``, ``ddd00.0``) otherwise. Each line of
``t_s,run_index,x_m`` is written into fixed character columns, one slot
for every character any line can have, with a mask of the slots a line
uses; compressing the mask gives the text. Decimal digits are written four
at a time, by one division by 10,000 and one lookup in a table of the
ASCII digits of 0 to 9,999. Lines are formatted in blocks of
``BLOCK_ROWS``, so the working set does not grow with the tile. The power
and digit tables are built on first use, not on import.

Only normal doubles are handled (:func:`all_normal`): :func:`csv_lines`
hands a tile holding a zero, a subnormal, an infinity or a nan to ``repr``
itself. ``repr`` is the reference; the tests compare the two byte for byte.
"""
from __future__ import annotations

import functools

import numpy as np

# lines formatted at once: a block takes about 1.5 MB of scratch (traced),
# whatever the tile size
BLOCK_ROWS = 4096

# decimal exponents k of the interval brackets of normal doubles
K_MIN, K_MAX = -324, 292

_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW52 = _U(2**52 - 1)
_LOW63 = _U(2**63 - 1)
_HIDDEN = _U(2**52)
# the x_m slots: sign, "0.", three zeros, the 17 digits each followed by a
# "." slot (but the last), the 0 of a trailing ".0", "e", sign, 3 digits
X_TEMPLATE = b"-0.000" + b"0." * 16 + b"0" + b"0e+000"
X_DIGITS = slice(6, 39, 2)
X_POINTS = slice(7, 38, 2)
X_ZERO, X_E = 39, 40
# 1 to 17: the place of each significand digit
_PLACES = np.arange(1, 18, dtype=np.uint8)
_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)
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
def _digit_table() -> np.ndarray:
    """Per v in ``[0, 10_000)``: the four ASCII digits of v, zero-padded, as one uint32.

    Built on first use; read-only.
    """
    return np.frombuffer("".join(f"{v:04d}" for v in range(10_000)).encode("ascii"), np.uint32)


def _four_digits(values: np.ndarray) -> np.ndarray:
    """The ASCII digits of values below 10,000, zero-padded to four rows, the last the units."""
    return _digit_table().take(values, mode="clip").view(np.uint8).reshape(-1, 4).T


def all_normal(xs: np.ndarray) -> bool:
    """Whether every value is a normal double: no zero, subnormal, infinity or nan."""
    exponents = (xs.view(np.uint64) >> _U(52)) & _U(0x7FF)
    return xs.size == 0 or (exponents.min() >= 1 and exponents.max() <= 0x7FE)


def csv_lines(t_repr: str, first: int, xs: np.ndarray) -> str:
    """``"".join(f"{t_repr},{r},{x!r}\\n" for r, x in enumerate(xs, first))``.

    ``xs`` is a contiguous float64 array; the kernel spells it if it holds
    only normal doubles (:func:`all_normal`), that f-string otherwise.
    """
    if not all_normal(xs):
        return "".join([f"{t_repr},{r},{x!r}\n" for r, x in enumerate(xs.tolist(), first)])
    head = (t_repr + ",").encode("ascii")
    width = len(str(first + max(xs.size - 1, 0)))
    template = np.frombuffer(head + b"0" * width + b"," + X_TEMPLATE + b"\n", np.uint8)
    return "".join(
        _block(template, len(head), first + a, xs[a : a + BLOCK_ROWS])
        for a in range(0, xs.size, BLOCK_ROWS)
    )


def _block(template: np.ndarray, head: int, first: int, xs: np.ndarray) -> str:
    """The lines of ``xs``, the first one with run index ``first``.

    ``chars`` and ``used`` hold one row per character slot of ``template``
    and one column per line, so that each slot is written contiguously.
    Every row of both is written here: the template's constant slots, then
    the digits and signs. Unused slots are zeroed and deleted from the text.
    """
    chars = np.empty((template.size, xs.size), np.uint8)
    used = np.empty(chars.shape, bool)
    x = template.size - 1 - len(X_TEMPLATE)
    index = slice(head, x - 1)
    xc = chars[x:]
    # the template's constant slots: the head, the comma after the run index
    # with the x_m slots before the digits, the points, the "0" of a trailing
    # ".0" with the "e", and the newline; the other slots are written below
    for rows in (slice(0, head), slice(x - 1, x + X_DIGITS.start), slice(x + X_ZERO, x + X_E + 1)):
        chars[rows] = template[rows, None]
    xc[X_POINTS] = ord(".")
    chars[-1] = ord("\n")
    # the head, the units digit of the run index, its comma and the newline
    # are in every line
    used[:head] = True
    used[x - 2 : x] = True
    used[-1] = True

    runs = np.arange(first, first + xs.size, dtype=np.uint64)
    _put_digits(chars[index], runs)
    # no leading zeros: the slot of 10**p is used from 10**p on
    width = x - 1 - head
    np.greater_equal(runs, _POWERS_OF_TEN[width - 1 : 0 : -1, None], out=used[index][:-1])

    f, decpt = _shortest(xs.view(np.uint64))
    digits = xc[X_DIGITS]
    _put_digits(digits, f)
    # significant digits: up to the last that is not 0 (the first never is);
    # a bool array read as uint8 multiplies without a cast
    n = ((digits > ord("0")).view(np.uint8) * _PLACES[:, None]).max(axis=0)
    exp_form = (decpt <= -4) | (decpt > 16)
    fixed = ~exp_form

    # the masks compare slot places with per-line counts, both one byte wide,
    # which numpy compares without a cast
    slots = used[x:]
    slots[0] = xs < 0
    # positional 0.000ddd: "0." and -decpt zeros before the digits
    slots[1:3] = fixed & (decpt <= 0)
    zeros = np.where(fixed & (decpt < 0), -decpt, 0).astype(np.uint8)
    np.less_equal(_PLACES[:3, None], zeros, out=slots[3:6])
    # the significant digits, or the digits up to the point if that is further
    shown = np.where(fixed, np.maximum(n, decpt), n).astype(np.uint8)
    np.less_equal(_PLACES[:, None], shown, out=slots[X_DIGITS])
    # the point follows digit decpt, or the first digit in exponent form
    point = np.where(fixed, np.maximum(decpt, 0), n > 1).astype(np.uint8)
    np.equal(_PLACES[:16, None], point, out=slots[X_POINTS])
    slots[X_ZERO] = fixed & (decpt >= n)
    # "e", the exponent's sign and two or three digits
    exponent = decpt - 1
    xc[X_E + 1] = np.where(exponent < 0, ord("-"), ord("+"))
    size = np.abs(exponent)
    xc[X_E + 2 : X_E + 5] = _four_digits(size)[1:]
    slots[X_E : X_E + 2] = exp_form
    slots[X_E + 2] = exp_form & (size >= 100)
    slots[X_E + 3 : X_E + 5] = exp_form

    # slots that no line of the block uses are left out of the transpose
    kept = used.any(axis=1)
    chars = chars[kept] * used[kept].view(np.uint8)
    return chars.T.tobytes().translate(None, b"\0").decode("ascii")


def _put_digits(rows: np.ndarray, values: np.ndarray) -> None:
    """Write the ASCII digits of ``values`` into ``rows``, the last row the units digit.

    Four digits at a time: a division by 10,000 and a lookup in
    :func:`_digit_table`. No value may have more digits than there are rows.
    """
    end = len(rows)
    while end > 0:
        start = max(end - 4, 0)
        group = values
        if start:
            values = values // _U(10_000)
            group = group - values * _U(10_000)
        # below 10,000, so the uint64 reads as the index type as it is
        rows[start:end] = _four_digits(group.view(np.int64))[start - end :]
        end = start


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
