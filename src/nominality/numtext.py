"""Exact decimal text of float64 and int64 arrays, as the bytes of CSV rows.

A float's text is ``repr(float(v))``: the shortest digits that read back as
the same float64, closest to its exact value, in fixed notation when the
decimal point falls within 16 places of the first digit and in exponent
notation otherwise.  The digits come from the common path of Ryu (Adams,
"Ryu: fast float-to-string conversion", PLDI 2018) in ``np.uint64``
arithmetic: for each binary exponent, one 128-bit power of 5 scales the
mantissa and its two rounding-interval bounds to about 18 decimal digits,
and trailing digits are removed while the interval still holds a shorter
number.  Only that path is taken here, and only for the fixed notation of
magnitudes from 1e-4 to below 2^49, where nearly every number the pipeline
writes lies: zero, subnormals, inf, nan, every magnitude below 1e-4 (which
``repr`` writes in exponent notation) or from 2^49 up, and the values whose
scaled mantissa may end in decimal zeros (Ryu's trailing-zero cases, such as
0.5 or 12.0) are formatted by ``repr`` of one list, so ``repr`` is both the
fallback and the oracle.

A block of cells is laid out as a (27, cells) byte matrix, one column per
cell, so every step works on long rows.  Rows 0-23 hold a cell's digits,
right-aligned and padded with '0'.  One character (a float's decimal point,
or an integer's sign, else a '0' before its text) is inserted at a per-cell
row, and the digits below it move down one row to end in row 24.  Rows 25
and 26 hold the separator: ',' or, in a row's last cell, '\\r\\n'.  A cell's
text runs from its first row (a float's sign is written just above its first
digit) to the end of its separator, and one masked select reads the cells in
order.

Every operand of the integer arithmetic is ``np.uint64``, since numpy 1.x
promotes mixed signed and unsigned 64-bit operands to float64.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_POINT, _MINUS, _ZERO, _COMMA, _CR, _LF = b".-0,\r\n"
_POW10 = np.array([10**k for k in range(20)] + [2**64 - 1], dtype=_U)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A cached table, shared by every caller, so made read-only."""
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=None)
def _quads() -> np.ndarray:
    """'0000'..'9999' as 4-byte words: the bytes of ``_quads()[k]`` are the text of k."""
    k = np.arange(10000)
    chars = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + _ZERO
    return _read_only(chars.astype(np.uint8).view(np.uint32).ravel())


@functools.lru_cache(maxsize=None)
def _exponent_tables() -> dict[str, np.ndarray]:
    """Ryu's constants for each 11-bit biased exponent below 1072 (|v| < 2^49).

    ``mul`` is the 128-bit multiplier (a power of 5 scaled to 125 bits) as
    four 32-bit limbs (low first), and ``left`` and ``right`` are 128 - j and
    j - 96 for the product's shift j.  ``e10`` is the decimal exponent of the
    scaled values.  A scaled mantissa with none of the bits of ``low`` set
    ends in binary zeros, and Ryu takes its general path for those and for
    the exponents in ``general``: zero, subnormals, every exponent from 1072
    up (which reuse 1071's constants), inf and nan.
    """
    scaled = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]  # 5^i to 125 bits
    limbs = np.array([[(m >> (32 * t)) & 0xFFFFFFFF for t in range(4)] for m in scaled], dtype=_U)

    minus_e2 = 1077 - np.clip(np.arange(2048), 1, 1071)  # -e2, for e2 = max(biased, 1) - 1077
    q = ((minus_e2 * 732923) >> 20) - (minus_e2 > 1)
    # 125 less Ryu's pow5bits(i) = ceil(log2(5^i)), for the power i = -e2 - q
    shift = q + 124 - (((minus_e2 - q) * 1217359) >> 19)
    general = np.zeros(2048, dtype=bool)
    general[0] = True  # zero and subnormals
    general[1072:] = True  # |v| >= 2^49 (Ryu's q <= 2 or e2 >= 0), inf and nan
    tables = {
        "mul": limbs[minus_e2 - q].T.copy(),
        "left": (128 - shift).astype(_U),
        "right": (shift - 96).astype(_U),
        "e10": q - minus_e2,
        "low": (_U(1) << np.minimum(q, 63).astype(_U)) - _U(1),
        "general": general,
    }
    return {name: _read_only(table) for name, table in tables.items()}


def _mul_shift(m: np.ndarray, mul: list[np.ndarray], left, right) -> np.ndarray:
    """floor(m * mul / 2^j) for m < 2^56 and a 125-bit mul, with 118 <= j <= 121.

    ``left`` and ``right`` are 128 - j and j - 96.  The low 64 bits of m * mul
    are dropped first, as in Ryu's ``mulShift64``; they cannot carry into bit j.
    """
    l0, l1, h0, h1 = mul
    m0 = m & _MASK32
    m1 = m >> _U(32)
    lo0 = m0 * l0
    lo1 = m0 * l1
    mid = (lo0 >> _U(32)) + (lo1 & _MASK32) + m1 * l0
    hi_lo = m1 * l1 + (lo1 >> _U(32)) + (mid >> _U(32))  # floor(m * low word / 2^64)
    p00 = m0 * h0
    col0 = (hi_lo & _MASK32) + (p00 & _MASK32)
    col1 = (hi_lo >> _U(32)) + (p00 >> _U(32)) + m0 * h1 + m1 * h0 + (col0 >> _U(32))
    return ((m1 * h1) << left) + (col1 >> right)


def _shortest(bits: np.ndarray):
    """Ryu's shortest digits and decimal exponent of float64 ``bits``, and the general cells.

    The digits of a value marked general are meaningless.
    """
    t = _exponent_tables()
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    mantissa = bits & _U((1 << 52) - 1)
    mv = (mantissa | _U(1 << 52)) << _U(2)
    mp = mv + _U(2)
    # the lower bound is closer where the mantissa is a power of two
    mm = mv - _U(2) + ((mantissa == 0) & (biased > 1)).astype(_U)
    general = t["general"][biased] | ((mv & t["low"][biased]) == 0)

    mul = [limb[biased] for limb in t["mul"]]
    left, right = t["left"][biased], t["right"][biased]
    vr, vp, vm = (_mul_shift(m, mul, left, right) for m in (mv, mp, mm))

    # Ryu removes digits while (vm, vp] holds a multiple of the next power of 10.  It
    # holds one of 10^k for k = floor(log10(vp - vm)) (vp - vm <= 4 * 2^125 / 2^118, so
    # k <= 2), and at most one of 10^(k+1), p * 10^(k+1); where it does, p less its
    # trailing zeros is the output.
    width = vp - vm
    k = (width > _U(9)).astype(np.intp) + (width > _U(99))
    p = vp // _POW10[k + 1]
    shorter = p > vm // _POW10[k + 1]
    scale = _POW10[k]
    r = vr // scale
    rest = vr - r * scale
    digits = r + ((r == vm // scale) | (rest + rest >= scale)).astype(_U)
    digits += (p - digits) * shorter.astype(_U)
    removed = k + shorter
    zeros = np.flatnonzero(shorter & (digits % _U(10) == 0))
    while zeros.size:
        digits[zeros] //= _U(10)
        removed[zeros] += 1
        zeros = zeros[digits[zeros] % _U(10) == 0]
    return digits, t["e10"][biased] + removed, general


def _digits(magnitude: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write each magnitude's 20 digit characters, right-aligned, down a column of
    ``rows``; return the numbers of significant digits (1 for 0)."""
    # the binary exponent of the magnitude as a float64 (which rounding can raise by
    # one) gives floor(log10) to within one either way
    exponent = (magnitude.astype(np.float64).view(_U) >> _U(52)).astype(np.intp) - 1023
    n = ((np.maximum(exponent, 0) * 78913) >> 18) + 1
    n += magnitude >= _POW10[n]
    n -= np.maximum(magnitude, _U(1)) < _POW10[n - 1]
    quads = _quads()
    used = (int(n.max()) + 3) // 4  # the 4-digit groups, from the right, that hold a digit
    rows[: 20 - 4 * used] = _ZERO
    rest = magnitude
    for j in range(4, 4 - used, -1):
        high = rest // _U(10000)
        chars = quads[(rest - high * _U(10000)).astype(np.intp)]
        rows[4 * j : 4 * j + 4] = chars.view(np.uint8).reshape(-1, 4).T
        rest = high
    return n


class _Cells:
    """The byte matrix of a block, one column per cell, and each cell's inserted
    character and its row, first row and sign."""

    def __init__(self, size: int):
        self.text = np.empty((27, size), dtype=np.uint8)
        self.text[:4] = _ZERO
        self.insert = np.empty(size, dtype=np.intp)
        self.char = np.empty(size, dtype=np.uint8)
        self.start = np.empty(size, dtype=np.intp)
        self.minus = np.zeros(size, dtype=bool)  # a '-' goes in the first row


def _float_cells(values: np.ndarray, cells: _Cells, at: slice) -> np.ndarray:
    """Lay out ``values`` as the cells ``at``; return the mask of those left to repr."""
    bits = values.view(_U)
    digits, exp10, general = _shortest(bits)
    n = _digits(digits, cells.text[4:24, at])
    decpt = exp10 + n
    # exponent notation (|v| < 1e-4) and integers (Ryu's trailing zeros) are left to repr
    general |= (decpt < -3) | (decpt >= n)
    minus = (bits >> _U(63)).astype(bool) & ~general
    first = 24 - n
    cells.insert[at] = np.where(general, 24, first + decpt)
    cells.start[at] = first + np.minimum(decpt - 1, 0) - minus
    cells.char[at] = _POINT
    cells.minus[at] = minus
    return general


def _int_cells(values: np.ndarray, cells: _Cells, at: slice) -> None:
    """Lay out ``values`` as the cells ``at``; each inserts its sign, or a '0' it starts after."""
    bits = values.view(_U)
    minus = bits >> _U(63)
    n = _digits(bits - minus * (bits + bits), cells.text[4:24, at])  # two's complement
    cells.insert[at] = 24 - n
    cells.char[at] = np.where(minus == 1, _MINUS, _ZERO)
    cells.start[at] = 25 - n - minus.astype(np.intp)


def csv_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV text of equally long (T, k) float64 or int64 blocks, side by side.

    Cells are separated by ',' and every row ends in '\\r\\n'; integer blocks
    print as integers and float blocks as ``repr(float(v))``.
    """
    n_rows = columns[0].shape[0]
    n_cols = sum(col.shape[1] for col in columns)
    size = n_rows * n_cols
    cells = _Cells(size)  # numbered column by column: each of ``columns`` fills one slice
    raw, raw_texts = [], []
    first = 0
    for col in columns:
        at = slice(first, first + col.size)
        first = at.stop
        values = np.ascontiguousarray(col.T).ravel()
        if col.dtype.kind == "i":
            _int_cells(values, cells, at)
            continue
        general = np.flatnonzero(_float_cells(values, cells, at))
        if general.size:
            raw.append(general + at.start)
            raw_texts += repr(values[general].tolist())[1:-1].split(", ")

    text, insert, start = cells.text, cells.insert, cells.start
    # the rows from each cell's inserted character on move down one row
    moved = -(np.arange(1, 25, dtype=np.uint8)[:, None] >= insert.astype(np.uint8)).view(np.uint8)
    below, above = text[1:25], text[:24]
    text[1:25] = below ^ ((below ^ above) & moved)
    flat = text.reshape(-1)
    flat[insert * size + np.arange(size)] = cells.char
    negative = np.flatnonzero(cells.minus)
    flat[start[negative] * size + negative] = _MINUS
    text[25], text[26] = _COMMA, _LF
    text[25, size - n_rows :] = _CR  # the last column ends each row
    end = np.full(size, 26, dtype=np.uint8)
    end[size - n_rows :] = 27
    if raw:
        where = np.concatenate(raw)
        chars = np.array(raw_texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        length = (chars != 0).sum(axis=1)
        right = np.maximum(np.arange(24) - (24 - length)[:, None], 0)
        text[1:25, where] = np.take_along_axis(chars, right, axis=1).T
        start[where] = 25 - length
    start = start.astype(np.uint8)
    lo, hi = int(start.min()), int(end.max())
    rows = np.arange(lo, hi, dtype=np.uint8)[:, None]
    keep = (rows >= start) & (rows < end)
    # read the cells row by row
    by_row = (hi - lo, n_cols, n_rows)
    return text[lo:hi].reshape(by_row).T[keep.reshape(by_row).T].tobytes()
