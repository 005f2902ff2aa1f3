"""Degradation, synergy-rate and stratified-rate tests."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from compound_uq.analysis import (
    DEGRADATION_CSV_FIELDS,
    degradation,
    records_to_csv,
    stratified_rate_test,
    superadditive_rate,
)
from compound_uq.errors import InputError


def record(c1, c2, c3, c4, config_id="cfg", meta=None):
    return degradation(config_id, c1, c2, c3, c4, meta=meta)


def test_degradation_worked_example():
    # Losses of 19% (masking), 27% (dynamics), 77% (compound): the
    # additive expectation is 46%, so the synergy is 0.31.
    r = record(1.0, 0.81, 0.73, 0.23)
    assert r.delta_po == pytest.approx(0.19, abs=1e-12)
    assert r.delta_theta == pytest.approx(0.27, abs=1e-12)
    assert r.delta_compound == pytest.approx(0.77, abs=1e-12)
    assert r.synergy_frac == pytest.approx(0.31, abs=1e-12)
    assert not r.baseline_degenerate


def test_degradation_equal_returns_are_zero():
    r = record(2.5, 2.5, 2.5, 2.5)
    assert r.delta_po == 0.0 and r.delta_theta == 0.0 and r.delta_compound == 0.0
    assert r.synergy_frac == 0.0 and r.synergy_units == 0.0


def test_degradation_exactly_additive_boundary():
    # Values chosen to be exactly representable so the additive case is a
    # true zero, not a rounding residue that could get flagged.
    r = record(4.0, 3.5, 3.0, 2.5)
    assert r.synergy_frac == 0.0
    assert r.synergy_units == 0.0
    rep = superadditive_rate([r])
    assert rep.n_superadditive == 0


def test_degradation_negative_baseline_uses_magnitude():
    r = record(-2.0, -2.5, -2.5, -4.0)
    assert r.delta_po == pytest.approx(0.25, abs=1e-12)
    assert r.delta_compound == pytest.approx(1.0, abs=1e-12)


def test_degradation_degenerate_baseline():
    r = record(0.0, 1.0, 1.0, -3.0)
    assert r.baseline_degenerate
    assert math.isnan(r.delta_po) and math.isnan(r.synergy_frac)
    assert r.synergy_units == pytest.approx(5.0, abs=1e-12)
    rep = superadditive_rate([r, record(1.0, 0.9, 0.9, 0.5)])
    # NaN synergy can never be flagged but stays in the denominator.
    assert rep.n_configs == 2 and rep.n_degenerate == 1
    assert rep.n_superadditive == 1 and rep.rate == 0.5


def test_degradation_rejects_nonfinite():
    with pytest.raises(InputError):
        record(float("nan"), 1.0, 1.0, 1.0)


def test_synergy_antisymmetry():
    above = record(1.0, 0.9, 0.8, 0.6)  # compound worse than additive
    below = record(1.0, 0.9, 0.8, 0.8)  # compound better by the same gap
    assert above.synergy_frac == pytest.approx(0.1, abs=1e-12)
    assert below.synergy_frac == pytest.approx(-0.1, abs=1e-12)


def test_superadditive_rate_recovers_planted_fraction():
    records = []
    for i in range(120):
        if i < 30:
            records.append(record(1.0, 0.9, 0.9, 0.5, config_id=f"s{i}"))  # synergy 0.3
        else:
            records.append(record(1.0, 0.9, 0.9, 0.8, config_id=f"a{i}"))  # synergy 0
    rep = superadditive_rate(records)
    assert rep.n_configs == 120
    assert rep.n_superadditive == 30
    assert rep.rate == pytest.approx(0.25, abs=1e-15)
    assert rep.mean_synergy == pytest.approx(0.3, abs=1e-12)


def test_superadditive_rate_threshold_extremes():
    records = [record(1.0, 0.9, 0.9, 0.5, config_id=f"r{i}") for i in range(5)]
    # a non-finite threshold would be written as NaN or Infinity, which is not JSON
    for threshold in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InputError, match=f"^threshold must be finite, got {threshold}$"):
            superadditive_rate(records, threshold=threshold)
    assert superadditive_rate(records, threshold=-1e308).rate == 1.0
    empty = superadditive_rate(records, threshold=1e308)
    assert empty.rate == 0.0
    assert "no records exceeded" in empty.notes
    assert empty.mean_synergy is None
    assert json.loads(empty.to_json())["threshold"] == 1e308
    with pytest.raises(ValueError):
        replace(empty, mean_synergy=float("nan")).to_json()


def test_superadditive_rate_t_test_rejects_injected_synergy():
    # Unit-scale synergies near 400 with sd 20: |t| is huge, so p must be
    # far below 1e-3. The t statistic is cross-checked by hand.
    rng = np.random.default_rng(42)
    records = []
    for i, s in enumerate(rng.normal(400.0, 20.0, size=30)):
        c1, c2, c3 = 1000.0, 800.0, 700.0
        c4 = c2 + c3 - c1 - s  # synergy_units == s by construction
        records.append(record(c1, c2, c3, c4, config_id=f"u{i}"))
    rep = superadditive_rate(records, units="units")
    assert rep.n_superadditive == 30

    vals = np.array([r.synergy_units for r in records])
    se = vals.std(ddof=1) / math.sqrt(30)
    assert rep.t_stat == pytest.approx(vals.mean() / se, rel=1e-12)
    assert rep.p_value < 1e-3
    assert rep.ci_low < vals.mean() < rep.ci_high


def test_superadditive_rate_small_flag_counts():
    rep = superadditive_rate([record(1.0, 0.9, 0.9, 0.5)])
    assert rep.n_superadditive == 1
    assert rep.t_stat is None and "at least two" in rep.notes
    with pytest.raises(InputError):
        superadditive_rate([])
    with pytest.raises(InputError):
        superadditive_rate([record(1.0, 0.9, 0.9, 0.5)], units="percent")


def strat_records(n_a, flag_a, n_b, flag_b):
    records = []
    for i in range(n_a):
        c4 = 0.5 if i < flag_a else 0.8
        records.append(record(1.0, 0.9, 0.9, c4, config_id=f"a{i}", meta={"delay_steps": 1}))
    for i in range(n_b):
        c4 = 0.5 if i < flag_b else 0.8
        records.append(
            record(1.0, 0.9, 0.9, c4, config_id=f"b{i}", meta={"delay_steps": 0, "shift": ["gain_left", 0.5]})
        )
    return records


def test_stratified_chi_square_hand_value():
    # 18/30 vs 7/30 flagged. Pooled rate 25/60; expected 12.5 flagged and
    # 17.5 unflagged per stratum; chi2 = 4 * (5.5^2) split across cells
    # = 2*(30.25/12.5) + 2*(30.25/17.5) = 8.29714285714...
    out = stratified_rate_test(strat_records(30, 18, 30, 7), stratum_key="delay_level")
    assert out.df == 1
    assert out.chi2 == pytest.approx(8.297142857142857, abs=1e-12)
    # For df=1 the survival function is erfc(sqrt(chi2 / 2)).
    assert out.p_value == pytest.approx(math.erfc(math.sqrt(out.chi2 / 2.0)), abs=1e-12)
    assert out.p_value < 0.005
    assert out.strata["delay=1"]["rate"] == pytest.approx(0.6, abs=1e-12)
    assert out.strata["delay=0"]["rate"] == pytest.approx(7.0 / 30.0, abs=1e-12)


def test_stratified_identical_strata_is_homogeneous():
    out = stratified_rate_test(strat_records(10, 5, 10, 5), stratum_key="delay_level")
    assert out.chi2 == 0.0 and out.p_value == 1.0


def test_stratified_degenerate_tables():
    none_flagged = stratified_rate_test(strat_records(10, 0, 10, 0), stratum_key="delay_level")
    assert none_flagged.chi2 == 0.0 and none_flagged.p_value == 1.0
    all_flagged = stratified_rate_test(strat_records(10, 10, 10, 10), stratum_key="delay_level")
    assert all_flagged.chi2 == 0.0 and all_flagged.p_value == 1.0


def test_stratified_degenerate_baseline_counts_but_is_never_flagged():
    degenerate = record(0.0, 1.0, 1.0, -3.0, config_id="zero", meta={"delay_steps": 1})
    records = strat_records(4, 2, 4, 1) + [degenerate]
    frac = stratified_rate_test(records, stratum_key="delay_level")
    assert frac.strata["delay=1"] == {"n": 5, "n_superadditive": 2, "rate": 0.4}
    # Its synergy in return units is defined (5.0), so there it is flagged.
    units = stratified_rate_test(records, stratum_key="delay_level", units="units")
    assert units.strata["delay=1"]["n_superadditive"] == 3


def test_stratified_shift_only_key_excludes_clean_dynamics():
    records = strat_records(6, 3, 6, 2)
    # No dynamics stressor at all: excluded from the shift_only strata.
    records.append(record(1.0, 0.9, 0.9, 0.5, config_id="clean", meta={"delay_steps": 0}))
    out = stratified_rate_test(records, stratum_key="shift_only")
    assert set(out.strata) == {"delayed", "static_shift"}
    assert out.strata["delayed"]["n"] == 6 and out.strata["static_shift"]["n"] == 6


def test_stratified_requires_two_strata():
    only_delay = strat_records(10, 5, 0, 0)
    with pytest.raises(InputError):
        stratified_rate_test(only_delay, stratum_key="delay_level")
    with pytest.raises(InputError):
        stratified_rate_test(only_delay, stratum_key="badkey")


def test_records_to_csv_schema(tmp_path):
    path = tmp_path / "deg.csv"
    records_to_csv([record(1.0, 0.9, 0.8, 0.5, config_id="x")], path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == DEGRADATION_CSV_FIELDS
    assert rows[0]["config_id"] == "x"
    assert float(rows[0]["synergy_frac"]) == pytest.approx(0.2, abs=1e-12)
    # DEGRADATION_CSV_FIELDS is derived from DegradationRecord, so pin the
    # header bytes themselves: a field added to the record must not move
    # degradation.csv silently.
    with open(path, newline="") as fh:
        header = fh.readline()
    assert header == (
        "config_id,return_c1,return_c2,return_c3,return_c4,delta_po,delta_theta,"
        "delta_compound,synergy_frac,synergy_units,baseline_degenerate\r\n"
    )


def test_tails_match_scipy_stats_bit_for_bit():
    # The module takes its tails from scipy.special without importing
    # scipy.stats; the reports must still carry exactly the values the
    # scipy.stats formulas give, so that no report byte moves.
    from scipy import stats

    rng = np.random.default_rng(6)
    n_checked = 0
    for df in range(1, 201):
        for loc in (0.0, 0.05, 0.5, 3.0):
            syn = rng.normal(loc, 1.0, size=df + 1)
            recs = [record(1.0, 1.0, 1.0 + s, 1.0) for s in syn]
            # every record flagged: no synergy lies below -1e308, and a threshold must be finite
            rep = superadditive_rate(recs, threshold=-1e308, units="units")
            vals = np.array([r.synergy_units for r in recs])
            se = float(vals.std(ddof=1)) / math.sqrt(df + 1)
            t_crit = float(stats.t.ppf(0.975, df))
            assert rep.p_value == float(2.0 * stats.t.sf(abs(rep.t_stat), df))
            assert rep.ci_low == rep.mean_synergy - t_crit * se
            assert rep.ci_high == rep.mean_synergy + t_crit * se
            n_checked += 1

        flags = rng.random((df + 1, 4)) < rng.uniform(0.2, 0.8)
        recs = [
            record(1.0, 1.0, 1.5 if f else 0.5, 1.0, meta={"delay_steps": k})
            for k, row in enumerate(flags)
            for f in row
        ]
        res = stratified_rate_test(recs, stratum_key="delay_level")
        assert res.df == df
        assert res.p_value == float(stats.chi2.sf(res.chi2, df))
    assert n_checked == 800
