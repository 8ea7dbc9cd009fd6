"""CSV text of float64 blocks, each float written as ``repr`` writes it.

:func:`csv_text` gives the bytes of ``",".join(map(repr, row)) + "\\n"``
for every row of a block, computed over the whole block with numpy:

- **Digits.** Ryū's ``d2d`` (Ulf Adams, "Ryū: fast float-to-string
  conversion", PLDI 2018) finds each double's shortest round-trip
  decimal, the one nearest the double where several are as short, ties
  to even: the digits ``repr`` gives.  It runs on uint64 arrays.  The
  mantissa times a 128-bit multiplier of Ryū's tables is built from
  32-bit limbs, as in Ryū's ``mulShiftAll64``: two products give the
  scaled value and both ends of its rounding interval.  Divisibility by
  a power of 5 uses the modular inverse of that power.
- **Layout.** Each float fills four uint64 words, 32 bytes: its sign
  and digits right-aligned in the first 24 bytes, a point inserted by a
  one-byte shift, then its exponent and separator.  The digit
  characters come from a SWAR split (several digits in one word) of
  8-digit groups.  Bytes a float has no character for hold 0, and one
  compaction of the block drops them.

The notation is ``repr``'s: an exponent (``e``, its sign and at least
two digits) where the point would sit more than 16 digits after the
first digit or more than 3 zeros before it, ``.0`` on a whole number,
and ``-0.0``, ``inf``, ``-inf`` and ``nan``.  Only integer operations
run, so the bytes do not depend on the host's floating point or on the
SIMD paths numpy takes.  The tables are built on the first call, in a
few milliseconds, not at import.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_ZEROS = _U(int.from_bytes(b"0" * 8, "little"))
_NO_POINT = 24          # the point offset f of a body with no point: "5e-324"


def _text(chars: bytes) -> int:
    """``chars`` as a little-endian word: the first character lowest."""
    return int.from_bytes(chars, "little")


def _byte_words(chars: np.ndarray) -> np.ndarray:
    """Rows of 24 byte values as three uint64 words each, the first byte
    lowest: a (3, rows) array."""
    rows = np.ascontiguousarray(chars.reshape(-1, 24), np.uint8)
    return rows.view("<u8").astype(_U).T.copy()


@lru_cache(maxsize=None)
def _tables() -> SimpleNamespace:
    """Ryū's tables, what each biased exponent takes from them, and the
    words of the layout, built on the first call."""
    t = SimpleNamespace()
    # 5**i scaled to 125 bits, and 2**(k + 124) / 5**i, k its bit length,
    # rounded up: Ryū's DOUBLE_POW5_SPLIT and DOUBLE_POW5_INV_SPLIT
    pos = [(p := 5 ** i) << 125 >> p.bit_length() for i in range(326)]
    inv = [(1 << (p := 5 ** i).bit_length() + 124) // p + 1
           for i in range(342)]
    t.pow5, t.pow5_inv = (np.array([[m & 2**64 - 1, m >> 64] for m in ms],
                                   _U) for ms in (pos, inv))
    del pos, inv
    # 5**p divides x < 2**64 iff x times its inverse is at most max5[p]
    t.inv5 = np.array([pow(5 ** p, -1, 2**64) for p in range(28)], _U)
    t.max5 = np.array([(2**64 - 1) // 5 ** p for p in range(28)], _U)
    # 10**k for k < 32, the ones past 2**64 as 2**64 - 1; and the
    # factor and divisor that leave the last removed digit of vr last
    t.p10 = np.array([min(10 ** k, 2**64 - 1) for k in range(32)], _U)
    t.lift = np.array([10] + [1] * 31, _U)
    t.below = np.roll(t.p10, 1)
    t.below[0] = 1

    # what each biased exponent takes; the double is m2 * 2**(e2 + 2)
    e2 = np.maximum(np.arange(2048), 1) - 1077
    big = e2 >= 0
    q = np.where(big, ((e2 * 78913) >> 18) - (e2 > 3),
                 ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = np.where(big, q, -e2 - q)
    mul = np.where(big[:, None], t.pow5_inv[i], t.pow5[i])
    t.mul_lo, t.mul_hi = mul[:, 0].copy(), mul[:, 1].copy()
    bits5 = ((i * 1217359) >> 19) + 1       # Ryū's pow5bits(i)
    t.shift = (np.where(big, q - e2 + bits5 + 124, q - bits5 + 125)
               - 65).astype(np.uint8)
    t.e10 = np.where(big, q, q + e2).astype(np.int16)
    t.rare = np.where(big, q <= 21, q <= 1)
    t.q5 = np.minimum(q, 27).astype(np.uint8)
    # vr is exact where 2**q divides 4 * m2 (a test made for q < 63)
    t.tz = (_U(1) << np.minimum(q, 64).astype(_U)) - _U(1)
    t.tz[big] = 2**64 - 1
    t.tz[~big & (q <= 1)] = 0
    del e2, big, q, i, mul, bits5

    # the body of f fraction bytes (f = _NO_POINT: no point) and lb % 32
    # bytes in all, a '-' before it for lb > 32: index f * 64 + lb
    p = np.arange(24, dtype=np.int8)
    f = np.arange(_NO_POINT + 1, dtype=np.int8)[:, None, None]
    lb = np.arange(64, dtype=np.int8)[:, None]
    size = lb % 32
    t.keep = _byte_words((p >= 24 - np.minimum(f, size)) * np.uint8(255))
    t.move = _byte_words(((p >= 24 - size) & (p < 23 - f)) * np.uint8(255))
    t.mark = _byte_words(((p == 23 - f) & (f < size)) * np.uint8(ord("."))
                         | ((p == 23 - size) & (lb > 32))
                         * np.uint8(ord("-")))
    # the last word: the exponent, if any, and the separator
    tails = [b""] + [b"e%+03d" % x for x in range(-324, 309)]
    t.comma, t.newline = (np.array([_text(s + sep) for s in tails], _U)
                          for sep in (b",", b"\n"))
    return t


def _mul128(m0, m1, x):
    """The low and high words of (m1 * 2**32 + m0) * x, m0 and m1 below
    2**32, as Ryū's umul128 builds them from 32-bit limbs."""
    x1 = x >> _U(32)
    mid = m0 * x1
    x1 *= m1                            # the high product
    x0 = x & _M32
    low = m0 * x0
    x0 *= m1                            # the cross product
    x1 += mid >> _U(32)
    x1 += x0 >> _U(32)
    mid &= _M32
    x0 &= _M32
    mid += x0
    mid += low >> _U(32)
    x1 += mid >> _U(32)
    low &= _M32
    mid <<= _U(32)
    low |= mid
    return low, x1


def _digits(bits, t):
    """Ryū's d2d on the uint64 bits of finite doubles: the shortest
    decimal digits, as an integer, and the decimal exponent of the last."""
    e = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)   # biased
    m2 = bits & _U(2**52 - 1)
    frac0 = m2 == 0
    m2 |= (e != 0).astype(_U) << _U(52)
    mv = m2 << _U(2)
    even = (m2 & _U(1)) == 0
    vr_tz = (mv & t.tz[e]) == 0
    vm_tz = np.zeros(e.shape, bool)
    rare = np.flatnonzero(t.rare[e] | (frac0 & (e > 1)))
    ex, mvr, ev = e[rare], mv[rare], even[rare]
    mm_shift = ~frac0[rare] | (ex <= 1)
    two = rare[~mm_shift]
    s, exp10 = t.shift[e], t.e10[e]
    m0 = (m2 << _U(33)) >> _U(32)       # the limbs of 2 * m2
    m1 = m2 >> _U(31)
    del m2, mv, frac0

    # 2 * m2 * mul is high:mid:low; with mul added and taken away it
    # gives vp and vm, all three shifted right by s + 64
    mul = t.mul_lo[e]
    low, carry = _mul128(m0, m1, mul)
    up = low > ~mul
    down = low < mul
    low2, mul_two = low[two], mul[two]
    del low
    mul = t.mul_hi[e]
    del e
    mid, high = _mul128(m0, m1, mul)
    del m0, m1
    mid += carry
    high += mid < carry
    del carry
    s_up = _U(64) - s

    def shifted(mid, high):             # bits s + 64 to s + 127, in place
        high <<= s_up
        mid >>= s
        high |= mid
        return high

    # an exact power of two has its lower neighbour nearer (Ryū's mmShift
    # 0): vm is (4 * m2 - 1) * mul >> (s + 65), not (4 * m2 - 2) * mul
    lo2 = low2 << _U(1)
    mid2 = (mid[two] << _U(1)) | (low2 >> _U(63))
    hi2 = (high[two] << _U(1)) | (mid[two] >> _U(63))
    lo4 = lo2 - mul_two
    mid4 = mid2 - mul[two] - (lo4 > lo2)
    hi2 -= mid4 > mid2
    vm_two = (hi2 << (s_up[two] - _U(1))) | (mid4 >> (s[two] + _U(1)))

    vp = mid + mul
    vp += up
    vp = shifted(vp, high + (vp < mid))
    np.subtract(mid, mul, out=mul)
    mul -= down
    vm = shifted(mul, high - (mul > mid))
    vr = shifted(mid, high)
    del s, s_up, up, down
    vm[two] = vm_two

    if rare.size:
        def pow5_multiple(x, p):
            return x * t.inv5[p] <= t.max5[p]

        # the exponents where Ryū asks whether vr, vp or vm is exact
        q, own = t.q5[ex], t.rare[ex]
        large, small = own & (ex >= 1077), own & (ex < 1077)
        five = pow5_multiple(mvr, 1)
        vr_tz[rare] |= large & five & pow5_multiple(mvr, q)
        vm_tz[rare] = ev & ((small & mm_shift) | (
            large & ~five & pow5_multiple(mvr - _U(1) - mm_shift, q)))
        vp[rare] -= (~ev & (small | (
            large & ~five & pow5_multiple(mvr + _U(2), q)))).astype(_U)

    # remove digits while the interval holds a shorter decimal: over the
    # whole block while most floats do, then by bisection over the others
    removed = np.zeros(bits.size, np.intp)
    a, b = vp, vm // _U(10)
    a //= _U(10)
    del vp
    live = a > b
    while np.count_nonzero(live) * 4 > live.size:
        removed += live
        a //= _U(10)
        b //= _U(10)
        np.greater(a, b, out=live)
    idx = np.flatnonzero(live)
    a, b, more = a[idx], b[idx], np.ones(idx.size, np.intp)
    for step in (16, 8, 4, 2, 1):
        p = t.p10[more + (step - 1)]
        more += step * (a // p > b // p)
    removed[idx] += more
    del a, b, live, idx, more
    tzi = np.flatnonzero(vm_tz)
    if tzi.size:
        # where vm is exact, Ryū goes on removing its trailing zeros
        r, vmi = removed[tzi], vm[tzi]
        vq = vmi // t.p10[r]
        exact = vq * t.p10[r] == vmi
        vm_tz[tzi] = exact
        while (more := exact & (vq % _U(10) == 0)).any():
            r += more
            vq[more] //= _U(10)
        removed[tzi] = r

    # round vr with its removed digits: up from 5, ties to even; with none
    # removed vr is below 10**17, and its last digit is taken as 0
    vr *= t.lift[removed]
    below = t.below[removed]
    head = vr // below
    vr_tz &= head * below == vr
    del below, vr
    out = head // _U(10)
    head -= out * _U(10)
    head[vr_tz & (head == 5) & ((out & _U(1)) == 0)] = 4
    out += (((vm >= out * t.p10[removed]) & ~(even & vm_tz))
            | (head >= _U(5)))
    removed += exp10
    zero = (bits << _U(1)) == 0         # 0.0 and -0.0: the digit 0 at 10**0
    out[zero] = 0
    removed[zero] = 0
    return out, removed


def _swar8(x):
    """The 8 decimal digits of each x < 10**8, the leading one in the low
    byte, as byte values 0 to 9 of one word; x is overwritten."""
    t = x // _U(10000)
    x -= t * _U(10000)
    x <<= _U(32)
    x |= t                              # two 4-digit lanes
    np.multiply(x, _U(10486), out=t)    # lane // 100: * 10486 >> 20
    t >>= _U(20)
    t &= _U(0x0000_007F_0000_007F)
    x -= t * _U(100)
    x <<= _U(16)
    x |= t                              # four 2-digit lanes
    np.multiply(x, _U(103), out=t)      # lane // 10: * 103 >> 10
    t >>= _U(10)
    t &= _U(0x000F_000F_000F_000F)
    x -= t * _U(10)
    x <<= _U(8)
    x |= t
    return x


def _fields(bits, cols, t):
    """The four words of each float of ``bits``, in rows of ``cols``: its
    sign and digits right-aligned in the first 24 bytes, 0 before them,
    then its exponent and separator."""
    out, decpt = _digits(bits, t)
    n = np.searchsorted(t.p10[1:18], out, side="right") + 1
    decpt += n                  # the point sits decpt digits after the first
    fixed = (decpt > -4) & (decpt <= 16)
    tail = np.where(fixed, 0, decpt + 324).reshape(-1, cols)
    # fixed: d.ddd, dd00.0 or 0.00ddd; exponent: d.ddd or d alone
    zeros = np.maximum(decpt - n + 1, 0) * fixed
    at = np.where(fixed, np.maximum(n - decpt, 1),
                  np.where(n > 1, n - 1, _NO_POINT)) * 64
    at += np.where(fixed, n + zeros + np.maximum(1 - decpt, 0) + 1,
                   n + (n > 1))
    at += 32 * (bits >> _U(63)).astype(np.intp)
    del n, decpt, fixed
    out *= t.p10[zeros]
    del zeros
    words = np.empty((out.size, 4), _U)
    last = words[:, 3].reshape(-1, cols)
    last[:, :-1] = t.comma[tail[:, :-1]]
    last[:, -1] = t.newline[tail[:, -1]]
    del tail, last
    head = out // _U(10**8)
    out -= head * _U(10**8)
    top = head // _U(10**8)
    head -= top * _U(10**8)
    top <<= _U(56)
    r = [top, _swar8(head), _swar8(out)]
    for word in r:
        word += _ZEROS
    for k in range(3):
        # before the point each byte comes from the one after it
        down = r[k] >> _U(8)
        if k < 2:
            down |= r[k + 1] << _U(56)
        down &= t.move[k][at]
        down |= r[k] & t.keep[k][at]
        down |= t.mark[k][at]
        words[:, k] = down
    return words


def csv_text(block: np.ndarray) -> str:
    """The CSV lines of the rows of the 2-D float array ``block``: each
    float's shortest round-trip decimal, the characters ``repr`` writes,
    ``,`` between floats and ``\\n`` after each row, from one pass of
    numpy integer operations over the whole block."""
    t = _tables()
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    if block.size == 0:
        return "\n" * rows
    bits = block.reshape(-1).view(_U)
    words = _fields(bits, cols, t)
    # inf and nan: three characters at the end of the body, a '-' before
    # -inf, and the separator alone after them
    special = np.flatnonzero((bits << _U(1)) >= _U(0x7FF << 53))
    nan = (bits[special] << _U(1)) > _U(0x7FF << 53)
    minus = (bits[special] >> _U(63)) * _U(_text(b"-") << 32)
    words[special, :2] = 0
    words[special, 2] = np.where(nan, _U(_text(b"nan") << 40),
                                 _U(_text(b"inf") << 40) | minus)
    words[special, 3] = np.where(special % cols == cols - 1, t.newline[0],
                                 t.comma[0])
    text = words.astype("<u8", copy=False).view(np.uint8).reshape(-1)
    return str(text[text != 0], "ascii")
