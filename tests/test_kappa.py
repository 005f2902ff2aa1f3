"""Coefficient formula tests with hand-evaluated oracle values."""

import math

import numpy as np
import pytest
from helpers import clamp_grid, float_bits

from compound_uq.errors import CalibrationError, InputError
from compound_uq.kappa import (
    CLIP_C,
    REGIMES,
    Regime,
    Thresholds,
    calibrate_thresholds,
    compute_step,
    kappa,
    nearest_rank_percentile,
    regime_code,
    sigma_s,
    sigma_theta,
)

THR = Thresholds(tau_low=0.2, tau_high=0.5)


def test_sigma_theta_hand_values():
    # z = (mse - mu0) / sigma0, clipped to [0, C], then divided by C.
    assert abs(sigma_theta(2.0 + 5.0 * 1.5, mu0=2.0, sigma0=1.5) - 1.0) < 1e-12
    assert sigma_theta(2.0, mu0=2.0, sigma0=1.5) == 0.0
    assert sigma_theta(0.5, mu0=2.0, sigma0=1.5) == 0.0  # below the floor clips to 0
    assert abs(sigma_theta(2.0 + 2.5 * 1.5, mu0=2.0, sigma0=1.5) - 0.5) < 1e-12
    # Values beyond mu0 + C sigma0 saturate at 1.
    assert sigma_theta(1e9, mu0=2.0, sigma0=1.5) == 1.0


def test_sigma_theta_validation():
    with pytest.raises(InputError):
        sigma_theta(1.0, mu0=0.0, sigma0=0.0)
    with pytest.raises(InputError):
        sigma_theta(-1.0, mu0=0.0, sigma0=1.0)
    with pytest.raises(InputError):
        sigma_theta(1.0, mu0=0.0, sigma0=1.0, clip_c=0.0)


def test_sigma_theta_clamp_is_np_clip_bit_for_bit():
    for z in clamp_grid(0.0, CLIP_C):
        if math.isnan(z):
            continue  # a NaN z needs a NaN mu0; see the next test
        # mse >= 0 and mu0 whose z-score (sigma0 = 1) is exactly z, sign of zero included
        if math.copysign(1.0, z) > 0:
            mse, mu0 = z, 0.0
        else:
            mse, mu0 = (-0.0, 0.0) if z == 0 else (0.0, -z)
        assert float_bits((mse - mu0) / 1.0) == float_bits(z)
        assert float_bits(sigma_theta(mse, mu0, 1.0)) == float_bits(float(np.clip(z, 0.0, CLIP_C) / CLIP_C)), z


def test_nan_mu0_passes_through_sigma_theta_and_compute_step_refuses_it():
    assert math.isnan(sigma_theta(1.0, math.nan, 1.0))
    with pytest.raises(InputError, match="deficit components must be finite"):
        compute_step(t=0, mse=1.0, mu0=math.nan, sigma0=1.0, po=0.0, delay_steps=0, thresholds=THR)


def test_sigma_s_hand_values():
    # po + min(1, tau * c_tau) * (1 + po)
    assert abs(sigma_s(0.5, 1, c_tau=0.3) - 0.95) < 1e-12
    assert sigma_s(0.0, 0) == 0.0
    assert abs(sigma_s(0.25, 0) - 0.25) < 1e-12
    # Long delays clip: po=1, tau=10 gives 1 + 1*2 = 3, the range maximum.
    assert abs(sigma_s(1.0, 10) - 3.0) < 1e-12


def test_sigma_s_validation():
    with pytest.raises(InputError):
        sigma_s(1.5, 0)
    with pytest.raises(InputError):
        sigma_s(0.5, -1)
    with pytest.raises(InputError):
        sigma_s(0.5, 1, c_tau=-0.1)


def test_kappa_is_component_sum():
    assert abs(kappa(0.2, 0.95) - 1.15) < 1e-12
    assert kappa(0.0, 0.0) == 0.0
    with pytest.raises(InputError):
        kappa(-0.1, 0.0)
    with pytest.raises(InputError):
        kappa(float("nan"), 0.0)


def test_classify_regime_boundaries():
    assert REGIMES[regime_code(0.1, THR)] is Regime.LOW
    # Threshold values themselves belong to the transition band.
    assert REGIMES[regime_code(0.2, THR)] is Regime.TRANSITION
    assert REGIMES[regime_code(0.35, THR)] is Regime.TRANSITION
    assert REGIMES[regime_code(0.5, THR)] is Regime.TRANSITION
    assert REGIMES[regime_code(0.51, THR)] is Regime.HIGH
    with pytest.raises(InputError):
        regime_code(-0.2, THR)


def test_compute_step_assembles_components():
    rec = compute_step(
        t=7, mse=2.0 + 2.5 * 1.5, mu0=2.0, sigma0=1.5, po=0.5, delay_steps=1, thresholds=THR
    )
    assert rec.t == 7
    assert abs(rec.sigma_theta - 0.5) < 1e-12
    assert abs(rec.sigma_s - 0.95) < 1e-12
    assert abs(rec.kappa - 1.45) < 1e-12
    assert rec.regime is Regime.HIGH


def test_nearest_rank_percentile():
    values = [3.0, 1.0, 2.0, 4.0]
    assert nearest_rank_percentile(values, 50.0) == 2.0
    assert nearest_rank_percentile(values, 95.0) == 4.0
    assert nearest_rank_percentile(values, 100.0) == 4.0
    assert nearest_rank_percentile([5.0], 1.0) == 5.0
    with pytest.raises(InputError):
        nearest_rank_percentile([], 50.0)
    with pytest.raises(InputError):
        nearest_rank_percentile(values, 0.0)


def test_calibrate_thresholds_hand_case():
    # Baseline at 0.0, so tau_low = 95th percentile (0.0) + margin.
    # Range is 2.0, so margin = max(0.05, 0.05 * 2.0) = 0.1.
    baseline = [0.0] * 20
    singles = {"po": [0.6] * 20, "delay": [0.8] * 20}
    compound = [2.0] * 20
    thr = calibrate_thresholds(baseline, singles, compound)
    assert abs(thr.tau_low - 0.1) < 1e-12
    assert abs(thr.tau_high - 1.4) < 1e-12  # midpoint of max single 0.8 and compound 2.0


def test_calibrate_thresholds_requires_separation():
    flat = [1.0] * 10
    with pytest.raises(CalibrationError):
        calibrate_thresholds(flat, {"po": flat}, flat)
    with pytest.raises(CalibrationError):
        calibrate_thresholds([], {"po": flat}, flat)
    with pytest.raises(CalibrationError):
        calibrate_thresholds(flat, {}, flat)


def test_thresholds_validation():
    with pytest.raises(InputError):
        Thresholds(tau_low=0.5, tau_high=0.2)
    with pytest.raises(InputError):
        Thresholds(tau_low=-0.1, tau_high=0.2)


def test_the_array_forms_are_compute_step_entry_by_entry_bit_for_bit():
    # mse at and around every clamp bound, both zeros included, against several noise floors,
    # each masking and delay level
    mse = np.array([z for z in clamp_grid(0.0, CLIP_C) if z >= 0.0])
    for po, delay in ((0.0, 0), (0.25, 1), (0.5, 1), (1.0, 10)):
        ss = sigma_s(np.full(mse.shape, po), np.full(mse.shape, delay))
        for m0 in (0.0, 1.0, CLIP_C, 1e308):
            st = sigma_theta(mse, m0, 1.0)
            k = kappa(st, ss)
            codes = regime_code(k, THR)
            for i, value in enumerate(mse.tolist()):
                rec = compute_step(t=i, mse=value, mu0=m0, sigma0=1.0, po=po, delay_steps=delay, thresholds=THR)
                got = (float_bits(st[i]), float_bits(ss[i]), float_bits(k[i]), REGIMES[codes[i]])
                assert got == (float_bits(rec.sigma_theta), float_bits(rec.sigma_s), float_bits(rec.kappa), rec.regime)
    with pytest.raises(InputError, match="deficit components must be finite"):
        kappa(np.array([0.5, math.inf]), np.zeros(2))


def test_regime_codes_put_both_thresholds_in_transition():
    below, above = math.nextafter(THR.tau_low, 0.0), math.nextafter(THR.tau_high, 1.0)
    values = np.array([0.0, below, THR.tau_low, 0.35, THR.tau_high, above, 3.0])
    assert regime_code(values, THR).tolist() == [0, 0, 1, 1, 1, 2, 2]
    assert [REGIMES[c] for c in regime_code(values, THR)] == [Regime.LOW] * 2 + [Regime.TRANSITION] * 3 + [Regime.HIGH] * 2
    assert REGIMES == (Regime.LOW, Regime.TRANSITION, Regime.HIGH)
    with pytest.raises(InputError):
        regime_code(np.array([0.1, math.nan]), THR)
