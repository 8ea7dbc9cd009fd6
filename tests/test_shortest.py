"""trajectory.csv text from ``runner._csv_rows``: byte for byte what
``repr`` writes, on every kind of double the shortest-digit search and
the layout treat apart, and on every host setting of the stepper's own
host test."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from filmsr import _shortest, runner
from filmsr.config import PRESET_NAMES

from test_dynamics import _HOST_SETTINGS


def repr_rows(block):
    """The oracle: each row's floats as ``repr`` writes them."""
    return "".join([",".join(map(repr, row)) + "\n"
                    for row in block.tolist()])


def assert_repr_bytes(values, cols=13):
    """``_csv_rows`` writes ``values``, as rows of ``cols``, in blocks of
    ``_CHUNK_ROWS`` rows, as ``repr`` does; a mismatch names its row."""
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    for lo in range(0, len(block), runner._CHUNK_ROWS):
        part = block[lo:lo + runner._CHUNK_ROWS]
        got, want = runner._csv_rows(part), repr_rows(part)
        if got != want:
            row = next(i for i, (g, w) in enumerate(
                zip(got.splitlines(), want.splitlines())) if g != w)
            pytest.fail(f"row {part[row].tolist()}: "
                        f"{got.splitlines()[row]!r} != "
                        f"{want.splitlines()[row]!r}")


def finite_bits(rng, size):
    """``size`` doubles of uniform random bits with a finite exponent."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
    bits = bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) != 0x7FF]
    return bits.view(np.float64)


def signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((values, -values))


class TestReprBytes:
    def test_random_bit_patterns(self):
        """A million doubles of random bits, both signs, every finite
        exponent: fixed and exponent notation, all digit counts."""
        values = finite_bits(np.random.default_rng(34), 1_001_300)
        assert_repr_bytes(values[:13 * 76_924])     # 1 000 012

    def test_subnormals(self):
        rng = np.random.default_rng(1)
        bits = np.concatenate((
            np.arange(1, 1301, dtype=np.uint64),
            np.uint64(2**52) - np.arange(1, 1301, dtype=np.uint64),
            rng.integers(1, 2**52, 10_400, dtype=np.uint64)))
        assert_repr_bytes(signed(bits.view(np.float64)))

    def test_powers_of_two(self):
        """Ryū's mmShift = 0: the lower neighbour of 2**k sits half as
        far as the upper one, except for the smallest normal exponent."""
        assert_repr_bytes(signed(np.ldexp(1.0, np.arange(-1074, 1024))),
                          cols=1)

    def test_integers(self):
        rng = np.random.default_rng(2)
        ints = np.concatenate((np.arange(0, 2600),
                               2**53 - np.arange(0, 2600),
                               rng.integers(0, 2**53, 13_000,
                                            endpoint=True)))
        assert_repr_bytes(signed(ints.astype(np.float64)))

    @pytest.mark.parametrize("decimals", range(1, 7))
    def test_values_rounded_to_few_decimals(self, decimals):
        """Short decimals: Ryū's trailing-zero branch, where vr or vm is
        exact."""
        rng = np.random.default_rng(decimals)
        values = np.round(rng.uniform(-1e4, 1e4, 13_000), decimals)
        assert_repr_bytes(np.concatenate((values, values / 1e7)))

    def test_around_powers_of_ten(self):
        """Both neighbours of 10**k for k = -300 to 300, and 10**k."""
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        assert_repr_bytes(signed(np.stack((np.nextafter(tens, 0), tens,
                                           np.nextafter(tens, np.inf)),
                                          axis=1)), cols=3)

    @pytest.mark.parametrize("decpt", [-4, -3, 16, 17])
    def test_notation_boundaries(self, decpt):
        """The point decpt digits after the first digit: exponent
        notation from -4 down and from 17 up, fixed at -3 and 16."""
        rng = np.random.default_rng(decpt + 10)
        low = float(f"1e{decpt - 1}")
        values = np.concatenate((
            [low, np.nextafter(low, np.inf),
             np.nextafter(float(f"1e{decpt}"), 0)],
            rng.uniform(1, 10, 1297) * low,
            np.round(rng.uniform(1, 10, 1300), 2) * low))
        assert_repr_bytes(signed(values))

    def test_zeros_infinities_and_nan(self):
        nan = float("nan")
        negative_nan = np.copysign(nan, -1.0)
        values = [0.0, -0.0, math.inf, -math.inf, nan, negative_nan, 1.5,
                  -2.5e-300, 5e-324, -1.7976931348623157e308]
        assert_repr_bytes(values, cols=5)
        assert_repr_bytes(values, cols=1)
        assert runner._csv_rows(np.array([[-0.0, math.inf, -math.inf, nan,
                                           negative_nan]])) == (
            "-0.0,inf,-inf,nan,nan\n")

    @pytest.mark.parametrize("shape", [(0, 13), (1, 13), (700, 1), (1, 1),
                                       (3, 0)])
    def test_block_shapes(self, shape):
        block = np.random.default_rng(3).standard_normal(shape)
        assert runner._csv_rows(block) == repr_rows(block)

    def test_leaves_the_block_as_it_was(self):
        block = np.random.default_rng(4).standard_normal((64, 13))
        before = block.copy()
        runner._csv_rows(block)
        runner._csv_rows(block[:, ::2])         # not contiguous
        assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_tables(self, preset, preset_runs):
        traj = preset_runs[preset]
        assert_repr_bytes(runner._trajectory_table(traj.t, traj.y,
                                                   traj.params))


class TestTables:
    """The formatter's uint64 tables are the big-int values they stand
    for."""

    @staticmethod
    def joined(pairs):
        return [int(lo) + (int(hi) << 64) for lo, hi in pairs]

    def test_powers_of_five(self):
        """Ryū's DOUBLE_POW5_SPLIT: 5**i to 125 bits, cut off."""
        for i, m in enumerate(self.joined(_shortest._tables().pow5)):
            exact = Fraction(5 ** i) * Fraction(2) ** (125 - (5 ** i)
                                                       .bit_length())
            assert m == math.floor(exact) and m.bit_length() == 125, i
        assert i == 325

    def test_inverse_powers_of_five(self):
        """Ryū's DOUBLE_POW5_INV_SPLIT: 2**(k + 124) / 5**i, k the bit
        length of 5**i, cut off, plus 1."""
        for i, m in enumerate(self.joined(_shortest._tables().pow5_inv)):
            exact = Fraction(2 ** ((5 ** i).bit_length() + 124), 5 ** i)
            assert m == math.floor(exact) + 1, i
        assert i == 341

    def test_modular_inverses_of_powers_of_five(self):
        t = _shortest._tables()
        for p, (inv, most) in enumerate(zip(t.inv5.tolist(),
                                            t.max5.tolist())):
            assert (inv * 5 ** p) % 2**64 == 1
            assert most == (2**64 - 1) // 5 ** p
        assert p == 27 and 5 ** 27 < 2**64 < 5 ** 28

    def test_each_exponent_takes_its_row(self):
        """The multiplier of each biased exponent is a row of the two
        tables: Ryū's q and i from the exponent alone."""
        t = _shortest._tables()
        rows = {tuple(r) for r in t.pow5.tolist() + t.pow5_inv.tolist()}
        assert set(zip(t.mul_lo.tolist(), t.mul_hi.tolist())) <= rows
        assert t.shift.min() >= 1 and t.shift.max() <= 63


_HOST_FORMAT = """
import hashlib
import numpy as np
from filmsr import runner
rng = np.random.default_rng(100_000)
bits = rng.integers(0, 2**64, 100_009, dtype=np.uint64)
block = bits[:100_000].view(np.float64).reshape(-1, 10)
print(hashlib.sha256(b"".join(
    runner._csv_rows(block[lo:lo + runner._CHUNK_ROWS]).encode()
    for lo in range(0, len(block), runner._CHUNK_ROWS))).hexdigest())
"""


class TestFormatterHostIndependence:
    """The text of a fixed block of 100 000 doubles of random bits (nan
    and inf among them) is ``repr``'s under every setting of the
    stepper's host test: neither numpy's SIMD paths for uint64 products
    and shifts nor the BLAS or libm variant changes a byte."""

    @pytest.fixture(scope="class")
    def expected(self):
        bits = np.random.default_rng(100_000).integers(
            0, 2**64, 100_009, dtype=np.uint64)
        block = bits[:100_000].view(np.float64).reshape(-1, 10)
        return hashlib.sha256(repr_rows(block).encode()).hexdigest()

    @pytest.mark.parametrize("setting", [None, *_HOST_SETTINGS])
    def test_text_is_host_independent(self, expected, setting):
        names = {name for name, _ in _HOST_SETTINGS.values()}
        env = {k: v for k, v in os.environ.items() if k not in names}
        if setting is not None:
            env.update([_HOST_SETTINGS[setting]])
        src = str(pathlib.Path(runner.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", _HOST_FORMAT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected
