"""The benchmark's per-layer trace still installs on the current package.

``perfbench/tracing.py`` wraps ``bistab`` entry points by name from the
outside.  A refactor that renames or drops one of them would otherwise only
show up as a crash of ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from bistab import cli, criteria, dynamics, relaxation, signals

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_install_wraps_and_uninstall_restores(tracing):
    modules = (cli, criteria, dynamics, relaxation, signals, dynamics.OdeSpec)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.install()
    try:
        assert dynamics.OdeSpec.rhs is not before[-1]["rhs"]
        spec = dynamics.OdeSpec(5.0, 6.0, signals.TrigSum(0.0, ((0.01, 1.0, 0.0),)))
        spec.rhs(0.5, np.array([0.5, 2.0]))
        assert tracer.calls["dynamics.rhs"] == 1
        assert tracer.calls["model"] >= 1
    finally:
        tracer.uninstall()
    for module, names in zip(modules, before):
        for name, value in names.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} not restored"


def test_solve_count_is_the_kernel_calls(tracing, monkeypatch):
    # CI's solve budgets read the traced calls and nfev of dynamics.solve_ivp,
    # the module's own RK45 loop: one run per map call, and nfev the kernel
    # calls that run really made
    assert dynamics.solve_ivp is not scipy.integrate.solve_ivp
    assert not hasattr(dynamics, "_NodeRK45")
    spec = dynamics.OdeSpec(5.0, 6.04, signals.TrigSum(0.0, ((0.03, 1.0, 0.4),)))
    factory, kernel_calls = dynamics._augmented_kernel, [0]

    def counted_factory(spec):
        augmented = factory(spec)

        def counted(t, y):
            kernel_calls[0] += 1
            return augmented(t, y)

        return counted

    monkeypatch.setattr(dynamics, "_augmented_kernel", counted_factory)
    tracer = tracing.install()
    try:
        dynamics.poincare_map_log(spec, 2.0 * np.pi, np.array([1.8, 2.0, 2.2]))
        assert tracer.calls["dynamics.solve_ivp"] == 1
        assert tracer.counts["nfev"] == kernel_calls[0] > 2
        assert (kernel_calls[0] - 2) % 6 == 0
    finally:
        tracer.uninstall()
