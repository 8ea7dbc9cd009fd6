"""Shared fixtures: the handful of reference integrations the suite reuses.

Integrations dominate the suite runtime, so every trajectory that more
than one test needs is computed once per session here.  All of them use
the shipped preset configurations (or documented small variations) at
default integrator settings.
"""

import os
import signal

import numpy as np
import pytest

from filmsr import (IntegratorControl, initial_state, integrate,
                    integrate_bright_dark, make_params)
from filmsr.config import PRESET_NAMES, load_preset


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of this one running or
    unreaped: after it, this process must have no child at all."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left: waitpid(-1, WNOHANG) gave {left}")


@pytest.fixture
def alarm():
    """Turn a test that does not end within 30 s, such as a wait on a
    child that never exits or a run that never ends, into a failure
    rather than a hang."""
    def hung(signum, frame):
        raise AssertionError("the test did not end within 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def preset_configs():
    return {name: load_preset(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def preset_runs(preset_configs):
    """Bare-basis trajectory of every shipped preset."""
    return {
        name: integrate(cfg.initial_state(), cfg.params, cfg.t_end, cfg.control)
        for name, cfg in preset_configs.items()
    }


@pytest.fixture(scope="session")
def preset_bd_runs(preset_configs):
    """The same presets integrated in the bright/dark basis."""
    return {
        name: integrate_bright_dark(cfg.initial_state(), cfg.params,
                                    cfg.t_end, cfg.control)
        for name, cfg in preset_configs.items()
    }


@pytest.fixture(scope="session")
def degenerate_nolfc_run():
    """Degenerate doublet without local-field correction (pure sech pulse)."""
    return integrate(initial_state(0.5, 0.5, 0.5), make_params(0.0, 0.0), 20.0)


@pytest.fixture(scope="session")
def blocking_runs():
    """Incoherent split-doublet runs far above / far below the critical LFC."""
    state = initial_state(0.5, 0.5, 0.0)
    return {
        delta_L: integrate(state, make_params(5.0, delta_L), 60.0)
        for delta_L in (1.0, 0.02)
    }


@pytest.fixture(scope="session")
def lfc_family_runs(preset_runs):
    """Coherent-init runs at delta_L in {0.25, 0.5, 1}; 1.0 is the fig5 preset."""
    state = initial_state(0.5, 0.5, 0.5)
    runs = {
        delta_L: integrate(state, make_params(5.0, delta_L), 60.0)
        for delta_L in (0.25, 0.5)
    }
    runs[1.0] = preset_runs["fig5"]
    return runs


@pytest.fixture(scope="session")
def fine_grid_fig2_run(preset_configs):
    """The fig2 scenario sampled twice as densely (resampling robustness)."""
    cfg = preset_configs["fig2"]
    ctrl = IntegratorControl(dt=0.005)
    return integrate(cfg.initial_state(), cfg.params, cfg.t_end, ctrl)


def poison_rhs(monkeypatch, from_call, until_call=None):
    """Make ``dynamics._rhs`` return NaN in one slot on calls
    ``from_call`` to ``until_call`` (for ever when None)."""
    from filmsr import dynamics

    real = dynamics._rhs
    calls = [0]

    def poisoned(y, *args):
        calls[0] += 1
        d = real(y, *args)
        if calls[0] >= from_call and (until_call is None
                                      or calls[0] <= until_call):
            d[0] = np.nan
        return d

    monkeypatch.setattr(dynamics, "_rhs", poisoned)


def random_pure_state(rng):
    """Density-matrix entries of a normalized single-emitter pure state.

    Pure states guarantee every positivity inequality exactly, which is
    all the consistency oracles need.
    """
    from filmsr import DensityState

    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    c1, c2, c3 = v
    return DensityState(
        R31=c3 * np.conj(c1),
        R21=c2 * np.conj(c1),
        rho32=c3 * np.conj(c2),
        rho11=abs(c1) ** 2,
        rho22=abs(c2) ** 2,
        rho33=abs(c3) ** 2,
    )
