"""The dump's array formatter against ``repr``, byte for byte.

``waxsim._dumpfmt.csv_lines`` spells ``f"{t_repr},{r},{x!r}\\n"`` for a
whole tile: by the array kernel if it holds only normal doubles, by that
f-string itself otherwise. Every check compares with the f-string.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waxsim import _dumpfmt


def repr_lines(t_repr, first, xs):
    return "".join(f"{t_repr},{r},{x!r}\n" for r, x in enumerate(xs.tolist(), first))


def mismatches(got, want):
    """Up to three differing lines of two texts, as (got, want); [] if they are equal.

    A failure then shows a few lines, not a diff of megabytes of text.
    """
    pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    differing = [pair for pair in pairs if pair[0] != pair[1]][:3]
    return differing if differing or got == want else [(got[-100:], want[-100:])]


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


# every power of two of a normal double and both its neighbours (inf above
# the largest and a subnormal below the smallest are dropped), every power
# of ten from 1e-307 and both its neighbours (where k steps and the ends of
# the rounding interval lie near multiples of 10), the integers to 10**5,
# the ends of the positional form (decpt -3 and 16), 3-digit exponents and
# the extremes; each with both signs
EDGES = np.concatenate([
    neighbours(2.0 ** np.arange(-1022, 1024)),
    neighbours([float(f"1e{e}") for e in range(-307, 309)]),
    np.arange(1, 10**5 + 1, dtype=float),
    neighbours([1e-5, 1e-4, 1e-3, 0.1, 1.0, 1e15, 1e16, 1e17, 9007199254740993.0]),
    neighbours([1e-100, 1e-99, 1.5e-200, 1e-300, 1e100, 1e99, 1.5e200, 1e300]),
    [np.finfo(float).max, np.finfo(float).tiny, 0.3, 2.0 / 3.0, 5e-324 * 2**52],
    # integers from 2**53 on, spaced 2 to 256: some have an end of their
    # rounding interval on a multiple of 10, which reads back to the value
    # only if its significand is even
    np.ldexp(2.0**52 + np.arange(200), np.arange(1, 9)[:, None]).ravel(),
    # spaced 2**53, with the lower end of the rounding interval exactly on the
    # one-digit-shorter candidate, which is the repr: the borrow out of the
    # low half of that end's product decides it
    [4.056579431202816e31, 4.05685430910976e31, 4.057129187016704e31],
])
EDGES = EDGES[np.isfinite(EDGES) & (np.abs(EDGES) >= np.finfo(float).tiny)]
EDGES = np.concatenate([EDGES, -EDGES])


def test_edge_table_matches_repr():
    assert _dumpfmt.all_normal(EDGES)
    # run indices from 5 to 6 digits inside the first block
    got = _dumpfmt.csv_lines("1e-05", 99_000, EDGES)
    assert mismatches(got, repr_lines("1e-05", 99_000, EDGES)) == []


# a tile is cut into the fewest equal blocks of at most BLOCK_ROWS lines: 2
# that differ by a line, 2 of 10,000 (the dump's tile at 20,000 runs), 3 of
# the same length, and 6 of a whole tile of TILE_RUNS lines. A head shorter
# than any float's repr takes the f-string, which cuts no blocks: one size for it
SIZES = [_dumpfmt.BLOCK_ROWS + 1, 20_000, 2 * _dumpfmt.BLOCK_ROWS + 3, 2**16]


@pytest.mark.parametrize(
    "t_repr, size",
    [(t_repr, size) for t_repr in ["0.0", "100.0", "1e-05"] for size in SIZES] + [("t", SIZES[2])],
)
@pytest.mark.parametrize("first", [0, 9, 2**16 * 7, 9_998, 99_999_998, 10**12 - 2])
def test_tile_of_normal_draws_matches_repr(t_repr, size, first):
    # a tile as the dump draws it; its run indices gain a digit inside a block
    # (from 9, 9,998 and 99,999,998 on, where the digits are looked up four at
    # a time) or the first index is already wide
    xs = np.random.default_rng(first).standard_normal(size) * 1e-3
    assert mismatches(_dumpfmt.csv_lines(t_repr, first, xs), repr_lines(t_repr, first, xs)) == []


def shapes(text):
    """The set of line shapes in a dump text: ("e", exponent digits) or ("f", decpt)."""
    found = set()
    for line in text.splitlines():
        x = line.rsplit(",", 1)[1].lstrip("-")
        if "e" in x:
            found.add(("e", len(x.split("e")[1]) - 1))
        elif x.startswith("0."):
            found.add(("f", -(len(x[2:]) - len(x[2:].lstrip("0")))))
        else:
            found.add(("f", x.index(".")))
    return found


def test_block_mixing_every_line_shape_matches_repr():
    # one block holding every shape at once: log-uniform magnitudes from
    # 1e-6 to 1e18 with random significands, short significands (one digit,
    # ddd00.0), 3-digit exponents, both signs; run indices cross 10**4
    rng = np.random.default_rng(32)
    n = _dumpfmt.BLOCK_ROWS
    short = [float(f"{d}e{e}") for d, e in zip(rng.integers(1, 1000, n // 4),
                                                rng.integers(-9, 19, n // 4))]
    huge = [float(f"{d}e{e}") for d, e in zip(rng.integers(1, 10**6, 64),
                                               rng.integers(-300, 300, 64))]
    xs = np.concatenate([10 ** rng.uniform(-6, 18, n - len(short) - len(huge)), short, huge])
    xs = rng.permutation(xs) * rng.choice([-1.0, 1.0], n)
    first = 10**4 - n // 2
    want = repr_lines("2.5", first, xs)
    assert {("f", decpt) for decpt in range(-3, 17)} | {("e", 2), ("e", 3)} <= shapes(want)
    assert mismatches(_dumpfmt.csv_lines("2.5", first, xs), want) == []


def test_19_digit_run_indices_match_repr():
    first = 2**63 - 9001
    xs = np.random.default_rng(19).standard_normal(9000)
    assert mismatches(_dumpfmt.csv_lines("0.0", first, xs), repr_lines("0.0", first, xs)) == []


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.binary(min_size=8, max_size=8 * 256).map(lambda b: b[: len(b) // 8 * 8]))
def test_any_finite_bit_pattern_matches_repr(raw):
    xs = np.frombuffer(raw, np.float64)
    xs = xs[np.isfinite(xs)]
    normal = xs[np.abs(xs) >= np.finfo(float).tiny]
    assert mismatches(_dumpfmt.csv_lines("0.5", 3, normal), repr_lines("0.5", 3, normal)) == []
    # and a whole tile, zeros and subnormals included
    assert mismatches(tile_csv("0.5", 3, xs), repr_lines("0.5", 3, xs)) == []


def tile_csv(t_repr, first, xs):
    """``_dumpfmt.csv_lines`` of a tile that holds ``xs``."""
    return _dumpfmt.csv_lines(t_repr, first, xs)


@pytest.mark.parametrize(
    "special", [0.0, -0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf, np.nan]
)
def test_tile_with_a_zero_subnormal_or_non_finite_value_takes_the_repr_path(special):
    xs = np.random.default_rng(1).standard_normal(100)
    xs[37] = special
    assert not _dumpfmt.all_normal(xs)
    assert mismatches(tile_csv("2.0", 0, xs), repr_lines("2.0", 0, xs)) == []
    assert f"2.0,37,{special!r}\n" in tile_csv("2.0", 0, xs)
