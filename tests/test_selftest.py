"""Every selftest check reports FAIL when the code it covers is broken.

Each case replaces one name in nfbf.selftest with a broken version of it and
runs that check alone through run_selftest.
"""

import itertools
import types
from dataclasses import replace

import numpy as np
import pytest

import nfbf.selftest as selftest
from nfbf.codebook import CodewordIndex


def _scaled_distances(real):
    return lambda cfg, angle, radius: real(cfg, angle, radius) * (1.0 + 1e-9)


def _scaled_steering(real):
    return lambda *args: 1.01 * real(*args)


def _fixed_sweep(real):
    return lambda cb, h: CodewordIndex(1, 1)


def _perturbed_basis(real):
    def build(*args, **kwargs):
        cb = real(*args, **kwargs)
        return replace(cb, sums=cb.sums * np.complex64(1.0 + 1e-3))
    return build


def _stretched_aux_grid(real):
    def points(*args):
        grid = real(*args)
        return replace(grid, radii=2.0 * grid.radii)
    return points


def _drifting_seed(real):
    calls = itertools.count()
    return lambda cfg, k, l, seed: real(cfg, k, l, seed + next(calls))


def _phase_dependent_rate(real):
    def rate(scenario, f, p, sigma2):
        first = np.asarray(getattr(f, "matrix", f))[0, 0]
        return real(scenario, f, p, sigma2) + float(np.angle(first))
    return rate


def _rising_trace(real):
    def design(*args):
        f, rep = real(*args)
        return f, replace(rep, objective_trace=[t[::-1] for t in rep.objective_trace])
    return design


def _perturbed_dense_form(real):
    def product(*args):
        made = real._UpdateProduct(*args)
        made.dense = made.dense * (1.0 + 1e-9)
        return made
    return types.SimpleNamespace(_UpdateProduct=product, _imperfect_mu=real._imperfect_mu)


def _transposed_channel(real):
    return lambda f_ab, eff: real(f_ab, eff.T)


def _drifting_run(real):
    calls = itertools.count()
    return lambda spec: real(replace(spec, base_seed=spec.base_seed + next(calls)))


# check -> (the nfbf.selftest name to break, how, what the check then reports)
BREAKS = {
    "geometry-distance-oracle": ("element_distances", _scaled_distances, "distance mismatch"),
    "geometry-steering-invariants": ("steering_matrix", _scaled_steering, "near-field norm off"),
    "codebook-self-selection": ("beam_sweep", _fixed_sweep, "self-selection failed"),
    "codebook-mirror": ("build_codebook", _perturbed_basis, "basis sums of N = 64 stray"),
    "codebook-aux-intervals": ("auxiliary_points", _stretched_aux_grid, "out of cell"),
    "channel-determinism": ("random_scenario", _drifting_seed, "different channels"),
    "metrics-invariants": ("sum_rate", _phase_dependent_rate, "not phase invariant"),
    "mm-descent-and-modulus": ("aobf_perfect_csi", _rising_trace, "perfect-CSI objective rose"),
    "mm-product-forms": ("mm", _perturbed_dense_form, "dense and low-rank low differ"),
    "hbf-invariants": ("hbf_zf", _transposed_channel, "ZF leakage too high"),
    "harness-all-schemes-deterministic": ("run_experiment", _drifting_run, "not deterministic"),
}


def _run_alone(monkeypatch, name):
    """The one CheckResult of check name, run by run_selftest."""
    monkeypatch.setattr(selftest, "CHECKS", tuple(c for c in selftest.CHECKS if c[0] == name))
    (result,) = selftest.run_selftest(seed=0)
    assert result.name == name
    return result


def test_every_check_has_a_break():
    assert set(BREAKS) == {name for name, _ in selftest.CHECKS}


@pytest.mark.parametrize("name", list(BREAKS))
def test_a_check_passes_on_working_code_and_fails_on_its_break(monkeypatch, name):
    assert _run_alone(monkeypatch, name).ok
    target, breaker, detail = BREAKS[name]
    monkeypatch.setattr(selftest, target, breaker(getattr(selftest, target)))
    result = _run_alone(monkeypatch, name)
    assert not result.ok
    assert result.line().startswith(f"FAIL {name}: ")
    assert detail in result.detail, result.detail


def test_a_crashed_check_is_a_failed_check(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("no scenario")

    monkeypatch.setattr(selftest, "random_scenario", crash)
    result = _run_alone(monkeypatch, "channel-determinism")
    assert not result.ok
    assert result.detail == "raised RuntimeError: no scenario"
