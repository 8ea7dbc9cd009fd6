"""Source of ``filmsr._dop853``, the straight-line DOP853 stage sums.

The stepper's stage sums, new state and error estimates, and the three
extra stages of its continuous extension, are written out as plain
Python arithmetic over the nonzero coefficients of each row of scipy's
DOP853 table, slot by slot in ascending stage order, on the stepper's
nine floats (the parts of the three coherences, then the three
populations), so that no array call and no complex number sits in a
trial step.  This script writes that code; ``src/filmsr/_dop853.py`` is
its output, which ``tests/test_dynamics.py::TestDop853Table`` checks.
The code has a module of its own because CPython compiles a module in
one piece: in ``dynamics.py`` it raised the peak memory of an
interpreter that compiles the package from source.

    python tests/dop853_source.py            # print the generated module
    python tests/dop853_source.py --write    # write src/filmsr/_dop853.py
"""

from __future__ import annotations

import pathlib
import sys

MODULE = (pathlib.Path(__file__).resolve().parent.parent
          / "src" / "filmsr" / "_dop853.py")
HEADER = [
    '"""DOP853 stage sums on the stepper\'s nine floats, for',
    ":mod:`filmsr.dynamics`: generated by tests/dop853_source.py from",
    'scipy\'s coefficient table; do not edit."""',
    "",
    "",
]
WIDTH = 79
SLOTS = 9       # the stepper's floats: see dynamics._scalars


def _table():
    from scipy.integrate._ivp import dop853_coefficients
    return dop853_coefficients


def _wrap(head: str, terms: list[str], indent: int) -> list[str]:
    """``head`` followed by ``terms`` joined by spaces, broken before a term
    wherever a line would pass WIDTH; continuation lines are indented by
    ``indent``."""
    lines, line = [], head + terms[0]
    for term in terms[1:]:
        if len(line) + 1 + len(term) > WIDTH:
            lines.append(line)
            line = " " * indent + term
        else:
            line += " " + term
    return lines + [line]


def _nonzero(row) -> list[int]:
    """Stage numbers (1-based) of the nonzero coefficients of ``row``."""
    return [j + 1 for j, c in enumerate(row) if c != 0.0]


def _slot_sum(head: str, row, slot: int, tail: str) -> list[str]:
    """``head`` + the sum of ``row`` over the stages in slot ``slot``
    + ``tail``: the terms ``k<j>_<slot> * c`` in ascending stage order,
    a negative coefficient written as a subtraction.  Every operand is a
    float, so each slot sums one part of a coherence, or a population,
    with the rounding of the same part of the complex sum: a complex
    times a float also forms the products of the float's zero imaginary
    part, which change at most the sign of a zero part."""
    terms = []
    for j in _nonzero(row):
        c = float(row[j - 1])
        if not terms:
            terms.append(f"k{j}_{slot} * {c!r}")
        else:
            terms.append(f"{'-' if c < 0 else '+'} k{j}_{slot} * {abs(c)!r}")
    terms[-1] += tail
    return _wrap(head, terms, len(head))


def _stage(target: str, row, call: bool, unpack: bool = True) -> list[str]:
    """``target = [y<s> + (row . stages) * h for each slot s]``, through
    ``rhs`` when ``call``, and then unpacked into ``<target>_0`` to
    ``<target>_8`` when ``unpack``."""
    open_, close = ("rhs([", "], *args)") if call else ("[", "]")
    lines = [f"    {target} = {open_}"]
    for s in range(SLOTS):
        lines += _slot_sum(f"        y{s} + (", row, s,
                           ") * h," if s < SLOTS - 1 else ") * h")
    lines.append("    " + close)
    if call and unpack:
        lines += _unpack([target])
    return lines


def _estimate(target: str, row) -> list[str]:
    """``target = [row . stages for each slot]``."""
    lines = [f"    {target} = ["]
    for s in range(SLOTS):
        lines += _slot_sum("        ", row, s, "," if s < SLOTS - 1 else "")
    return lines + ["    ]"]


def _unpack(names) -> list[str]:
    """``<name>_0, ..., <name>_8 = <name>`` for each of ``names``."""
    return ["    " + ", ".join(f"{name}_{s}" for s in range(SLOTS))
            + f" = {name}" for name in names]


def _state() -> str:
    """``y0, ..., y8 = y``."""
    return "    " + ", ".join(f"y{s}" for s in range(SLOTS)) + " = y"


def source() -> str:
    """The text of the generated module."""
    ref = _table()
    out = HEADER + [
        "def _stages(rhs, args, y, k1, h):",
        '    """Stages 2 to 12, the new state and the unscaled 5th- and',
        '    3rd-order error estimates of a DOP853 trial step of size h from',
        '    y, where k1 = f(y); returns (y_new, [k1, ..., k12], e5, e3)."""',
        _state(),
    ]
    out += _unpack(["k1"])
    for i in range(1, 12):
        out += _stage(f"k{i + 1}", ref.A[i, :i], True)
    out += _stage("y_new", ref.B, False)
    out += _estimate("e5", ref.E5[:12])
    out += _estimate("e3", ref.E3[:12])
    out += ["    return (y_new, [" + ", ".join(f"k{j}" for j in range(1, 13))
            + "], e5, e3)", "", ""]

    used = sorted(set().union(*(_nonzero(ref.A[i, :13])
                                for i in range(13, 16))))
    out += [
        "def _extra_stages(rhs, args, y, K, h):",
        '    """Append stages 14 to 16 of the continuous extension to the',
        '    13 stages K of an accepted step of size h from y."""',
        _state(),
        "    " + ", ".join(f"k{j}" if j in used else "_"
                           for j in range(1, 14)) + " = K",
    ]
    out += _unpack([f"k{j}" for j in used])
    for i in range(13, 16):
        out += _stage(f"k{i + 1}", ref.A[i, :i], True, i < 15)
    out.append("    K += (k14, k15, k16)")
    return "\n".join(out) + "\n"


def main(argv) -> int:
    new = source()
    if argv[1:] == ["--write"]:
        MODULE.write_text(new, encoding="utf-8")
    elif argv[1:]:
        print(__doc__)
        return 2
    else:
        sys.stdout.write(new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
