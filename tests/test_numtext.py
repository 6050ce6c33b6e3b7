"""The vectorized float and integer text kernel against ``repr`` and ``str``."""

import numpy as np

from nominality import numtext

TWO_53 = 2.0**53


def csv_lines(block: np.ndarray) -> list[str]:
    """The rows :func:`numtext.csv_rows` writes for a (T, k) block, 2048 rows at a time."""
    text = b"".join(numtext.csv_rows([block[lo : lo + 2048]]) for lo in range(0, len(block), 2048))
    return text.decode().split("\r\n")[:-1]


def oracle_cases() -> np.ndarray:
    """Over a million float64 values: random bit patterns and the edge cases of the format."""
    rng = np.random.default_rng(2024)
    random_bits = rng.integers(0, 2**64, 500_000, dtype=np.uint64, endpoint=False)
    subnormal_bits = rng.integers(1, 2**52, 20_000, dtype=np.uint64)
    powers = 10.0 ** np.arange(-30, 31)
    edges = [
        0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
        np.inf, -np.inf, np.nan, 1.7976931348623157e308,
        1e-5, 1e-4, 1e15, 1e16, 1e22, 1e23, 9.999999999999999e22, 0.1, 0.5, 12.5,
        TWO_53 - 1, TWO_53, TWO_53 + 2, np.nextafter(TWO_53, 0), 2.0**54, 2.0**63, 2.0**-1074,
    ]
    near_powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    normal = rng.standard_normal(500_000) * 10.0 ** rng.integers(-25, 25, 500_000)
    scale = 10.0 ** rng.integers(0, 6, 20_000)
    short = np.round(rng.standard_normal(20_000) * 100 * scale) / scale  # few decimals
    values = np.concatenate([
        random_bits.view(np.float64), subnormal_bits.view(np.float64),
        np.array(edges), near_powers, normal, short,
        np.arange(-3000, 3000, dtype=np.float64),  # integer-valued floats
        np.arange(1, 5000) / 64,  # binary fractions: Ryu's trailing-zero cases
    ])
    values = np.concatenate([values, -values[-100_000:]])
    return values[: values.size // 4 * 4]


def test_floats_match_repr():
    """Every cell is ``repr(float(v))``, for 1.1 million values."""
    values = oracle_cases()
    assert values.size >= 1_000_000
    rows = csv_lines(values.reshape(-1, 4))
    assert rows == [",".join(map(repr, row)) for row in values.reshape(-1, 4).tolist()]


def test_every_binade_takes_the_kernel():
    """A normal value with an odd mantissa takes Ryu's common path below 2^49, and
    ``repr`` writes every value from 2^49 up."""
    rng = np.random.default_rng(7)
    exponents = np.arange(1, 2047, dtype=np.uint64)
    mantissas = rng.integers(1, 2**52, exponents.size, dtype=np.uint64) | np.uint64(1)
    values = ((exponents << np.uint64(52)) | mantissas).view(np.float64)
    _, _, general = numtext._shortest(values.view(np.uint64))
    assert not general[exponents < 1072].any()
    assert general[exponents >= 1072].all()
    assert csv_lines(values[:, None]) == [repr(v) for v in values.tolist()]


def test_exponent_notation_goes_to_repr():
    """The kernel writes only fixed notation: every magnitude below 1e-4, which
    ``repr`` writes in exponent notation, and every one from 2^49 up is left to it."""
    rng = np.random.default_rng(7)
    exponents = np.arange(1, 2047, dtype=np.uint64)
    mantissas = rng.integers(1, 2**52, exponents.size, dtype=np.uint64) | np.uint64(1)
    values = ((exponents << np.uint64(52)) | mantissas).view(np.float64)
    values = np.concatenate([values, -values, [1e-4, np.nextafter(1e-4, 0), 1.2e-4, 5e-5]])
    cells = numtext._Cells(values.size)
    left = numtext._float_cells(values, cells, slice(0, values.size))
    np.testing.assert_array_equal(left, (np.abs(values) < 1e-4) | (np.abs(values) >= 2.0**49))
    assert csv_lines(values[:, None]) == [repr(v) for v in values.tolist()]


def test_integers_match_str():
    rng = np.random.default_rng(11)
    extremes = [0, 1, -1, 9, 10, -10, 99, 100, 10**18, 10**18 - 1, -(2**63), 2**63 - 1]
    values = np.concatenate([
        np.array(extremes, dtype=np.int64),
        rng.integers(-(2**63), 2**63 - 1, 20_000, dtype=np.int64),
        rng.integers(-1000, 1000, 20_000),
    ])
    assert csv_lines(values.reshape(-1, 4)) == [
        ",".join(map(str, row)) for row in values.reshape(-1, 4).tolist()]


def test_mixed_blocks_side_by_side():
    """Integer and float blocks of one row keep their own formats and the row order."""
    rng = np.random.default_rng(5)
    floats = rng.standard_normal((300, 3))
    floats[::7, 1] = 0.5  # repr fallbacks in the middle of a row
    floats[::5, 0] = 3e-7  # exponent notation, also left to repr
    ints = rng.integers(-5, 5, (300, 2))
    text = numtext.csv_rows([ints[:, :1], floats, ints[:, 1:]]).decode()
    expected = "".join(
        ",".join([str(a), *map(repr, row), str(b)]) + "\r\n"
        for a, row, b in zip(ints[:, 0].tolist(), floats.tolist(), ints[:, 1].tolist()))
    assert text == expected
