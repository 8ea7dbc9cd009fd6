"""The paper's branching law across (omega32, delta_L), away from the presets.

In the linear stage the two optical channels grow at rates that differ by
the gap 4 W^2 delta_L / omega32 (``analytics.linear_rates``).  Over the
delay time that gap sets the ratio of the populations the channels shed,

    ln(delta33 / delta22) = 2 * (4 W^2 delta_L / omega32) * t_peak,

the square of ``analytics.amplitude_ratio`` at the peak, and with it the
local-field strength at which the slower channel is blocked.  The base is
fig4 (incoherent preparation, rho22 = rho33 = 0.5, so W = 0.5 and the gap
is delta_L / omega32) run to t_end 80 on a grid fine enough for omega32.
The law holds where the asymptotic rates do: omega32 >= 5 and delta22
well above the stepper's noise.
"""

import math
from dataclasses import replace

import pytest

from filmsr import (IntegratorControl, critical_lfc, integrate, make_params,
                    pulse_metrics)
from filmsr.config import load_preset

W = 0.5
BASE = load_preset("fig4")


def metrics(omega32, delta_L):
    cfg = replace(BASE, params=make_params(omega32, delta_L), t_end=80.0,
                  control=IntegratorControl(dt=min(0.01, 0.05 / omega32)))
    cfg = cfg.validated()
    return pulse_metrics(integrate(cfg.initial_state(), cfg.params,
                                   cfg.t_end, cfg.control))


@pytest.mark.parametrize("omega32", [5.0, 10.0])
@pytest.mark.parametrize("delta_L", [0.1, 0.3, 0.5])
def test_log_branching_ratio_follows_the_linear_stage_gap(omega32, delta_L):
    """ln(delta33/delta22) = 2 delta_L t_peak / omega32 within 2 %.

    Measured relative errors: +1.19, +0.49 and +0.30 % at omega32 = 5 and
    -0.44, -1.12 and -0.99 % at omega32 = 10, for delta_L = 0.1, 0.3 and
    0.5."""
    m = metrics(omega32, delta_L)
    law = 2.0 * (4.0 * W * W * delta_L / omega32) * m.t_peak
    ratio = math.log(m.branching.delta33 / m.branching.delta22)
    assert ratio == pytest.approx(law, rel=0.02)


def blocking_onset(omega32, halvings=8):
    """The delta_L where ``blocked_21`` flips, by bisection of
    [0.02, 0.05] * omega32: 8 halvings resolve 0.37 % of the onset.
    Returns the last bracket's midpoint and the run there."""
    lo, hi = 0.02 * omega32, 0.05 * omega32
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if metrics(omega32, mid).branching.blocked_21:
            hi = mid
        else:
            lo = mid
    assert lo > 0.02 * omega32 and hi < 0.05 * omega32   # the flip is inside
    onset = 0.5 * (lo + hi)
    return onset, metrics(omega32, onset)


def test_blocking_onset_scales_with_splitting_and_matches_the_flag():
    """The onset delta_L_c is linear in omega32, and it is (ln 9 / 2) times
    ``critical_lfc`` at its own delay, each within 3 %.

    ``blocked_21`` means delta22 <= 0.1 rho22(0), that is delta33/delta22
    >= 9 with delta33 near 0.45, so the law puts the flip where
    2 * gap * t_peak = ln 9; ``critical_lfc`` sets gap * t_peak = 1.
    Measured: delta_L_c / omega32 = 0.03189 and 0.03236 at omega32 = 5
    and 10 (1.5 % apart); delta_L_c / critical_lfc = 1.0881 and 1.1106,
    -0.96 % and +1.10 % off ln 9 / 2 = 1.0986."""
    onsets = {}
    for omega32 in (5.0, 10.0):
        onset, m = blocking_onset(omega32)
        onsets[omega32] = onset / omega32
        assert onset / critical_lfc(omega32, W, m.t_peak) == pytest.approx(
            math.log(9.0) / 2.0, rel=0.03)
    assert onsets[10.0] == pytest.approx(onsets[5.0], rel=0.03)
