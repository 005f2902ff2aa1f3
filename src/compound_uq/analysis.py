"""Super-additivity statistics over matched-seed condition sweeps.

A degradation record compares four episode returns from the same seed:
clean (C1), masking only (C2), dynamics stressor only (C3), and both
(C4). Fractional losses are taken against the matched C1 return, and the
synergy is how much the compound loss exceeds the sum of the single
losses. Positive synergy in raw return units means the combination cost
more than its parts, which is the failure mode this toolkit exists to
flag.

Statistics are deliberately plain and hand-auditable: the flagged-synergy
t statistic and the rate-homogeneity chi-square are computed from their
textbook formulas, with only the distribution tails taken from
``scipy.special``: ``stdtr`` (Student t CDF) for the two-sided p-value,
``stdtrit`` (its inverse) for the 95% critical value and ``chdtrc``
(chi-square survival function) for the homogeneity p-value. These are the
calls ``scipy.stats.t.sf``, ``t.ppf`` and ``chi2.sf`` make, so the values
are the same bit for bit, without importing ``scipy.stats``. scipy is
imported only inside the two functions that need it, so importing this
module (and the CLI) loads no scipy. No statistic here uses internal
randomness; identical records give identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import InputError
from .snapshot import atomic_write_text

SCHEMA_VERSION = 1
STRATUM_KEYS = ("delay_level", "shift_only")  # what stratified_rate_test can split the records by
UNITS = ("frac", "units")  # the synergy a record is flagged by: synergy_frac or synergy_units


@dataclass(frozen=True)
class DegradationRecord:
    """Matched-seed returns and derived losses for one configuration.

    ``return_c2`` is the masking-only arm and ``return_c3`` the dynamics
    stressor arm. When the baseline return is (numerically) zero the
    fractional deltas are undefined; such records carry NaN deltas, are
    marked degenerate, and can never be flagged in fractional units.
    """

    config_id: str
    return_c1: float
    return_c2: float
    return_c3: float
    return_c4: float
    delta_po: float
    delta_theta: float
    delta_compound: float
    synergy_frac: float
    synergy_units: float
    baseline_degenerate: bool = False
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


BASELINE_EPS = 1e-12


def degradation(
    config_id: str,
    return_c1: float,
    return_c2: float,
    return_c3: float,
    return_c4: float,
    meta: dict | None = None,
) -> DegradationRecord:
    """Fractional losses versus the matched clean return, plus synergy.

    delta_x = (R_C1 - R_Cx) / |R_C1|; synergy_frac = delta_compound -
    (delta_po + delta_theta). synergy_units is the same quantity in raw
    return units, R_C2 + R_C3 - R_C1 - R_C4, which stays defined even for
    a zero baseline.
    """
    for name, v in (("return_c1", return_c1), ("return_c2", return_c2), ("return_c3", return_c3), ("return_c4", return_c4)):
        if not math.isfinite(v):
            raise InputError(f"{name} must be finite, got {v}")
    synergy_units = (return_c2 + return_c3) - (return_c1 + return_c4)
    degenerate = abs(return_c1) < BASELINE_EPS
    if degenerate:
        d_po = d_theta = d_comp = s_frac = float("nan")
    else:
        scale = abs(return_c1)
        d_po = (return_c1 - return_c2) / scale
        d_theta = (return_c1 - return_c3) / scale
        d_comp = (return_c1 - return_c4) / scale
        s_frac = d_comp - (d_po + d_theta)
    return DegradationRecord(
        config_id=config_id,
        return_c1=float(return_c1),
        return_c2=float(return_c2),
        return_c3=float(return_c3),
        return_c4=float(return_c4),
        delta_po=d_po,
        delta_theta=d_theta,
        delta_compound=d_comp,
        synergy_frac=s_frac,
        synergy_units=float(synergy_units),
        baseline_degenerate=degenerate,
        meta=dict(meta or {}),
    )


@dataclass(frozen=True)
class SynergyReport:
    """Rate and significance summary over a batch of records."""

    n_configs: int
    n_superadditive: int
    rate: float
    units: str
    threshold: float
    mean_synergy: float | None
    t_stat: float | None
    p_value: float | None
    ci_low: float | None
    ci_high: float | None
    n_degenerate: int
    per_stratum_rates: dict | None = None
    notes: str = ""

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        """The report as JSON; a non-finite number raises ``ValueError`` rather than writing ``NaN``."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


def _synergy_of(record: DegradationRecord, units: str) -> float:
    if units in UNITS:
        return getattr(record, f"synergy_{units}")
    raise InputError(f"units must be {' or '.join(map(repr, UNITS))}, got {units!r}")


def superadditive_rate(records, threshold: float = 0.0, units: str = "frac") -> SynergyReport:
    """Flag records whose synergy exceeds ``threshold`` and test the mean.

    The denominator is all records. Degenerate-baseline records cannot be
    flagged in fractional units (their synergy is NaN, and NaN never
    exceeds a threshold) but still count toward the denominator; their
    count is reported. The one-sample t statistic tests the flagged
    synergies against zero mean with a two-sided p-value and a 95%
    confidence interval; fewer than two flagged records leave the test
    fields empty. A non-finite ``threshold`` is refused.
    """
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold}")
    recs = list(records)
    if not recs:
        raise InputError("superadditive_rate needs at least one record")
    synergies = np.array([_synergy_of(r, units) for r in recs], dtype=float)
    flagged = synergies > threshold
    n = len(recs)
    n_flag = int(flagged.sum())
    n_degenerate = sum(1 for r in recs if r.baseline_degenerate)

    mean_s = t_stat = p_value = ci_low = ci_high = None
    notes = ""
    if n_flag == 0:
        notes = "no records exceeded the synergy threshold"
    else:
        vals = synergies[flagged]
        mean_s = float(vals.mean())
        if n_flag >= 2:
            sd = float(vals.std(ddof=1))
            if sd > 0:
                se = sd / math.sqrt(n_flag)
                t_stat = mean_s / se
                df = n_flag - 1
                from scipy.special import stdtr, stdtrit

                p_value = float(2.0 * stdtr(df, -abs(t_stat)))
                t_crit = float(stdtrit(df, 0.975))
                ci_low = mean_s - t_crit * se
                ci_high = mean_s + t_crit * se
            else:
                notes = "flagged synergies are constant; t statistic undefined"
        else:
            notes = "only one flagged record; t statistic needs at least two"

    return SynergyReport(
        n_configs=n,
        n_superadditive=n_flag,
        rate=n_flag / n,
        units=units,
        threshold=float(threshold),
        mean_synergy=mean_s,
        t_stat=None if t_stat is None else float(t_stat),
        p_value=p_value,
        ci_low=ci_low,
        ci_high=ci_high,
        n_degenerate=n_degenerate,
        notes=notes,
    )


@dataclass(frozen=True)
class StratifiedRateResult:
    stratum_key: str
    strata: dict
    chi2: float
    df: int
    p_value: float

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def _stratum_of(record: DegradationRecord, stratum_key: str) -> str | None:
    if stratum_key == "delay_level":
        return f"delay={record.meta.get('delay_steps', 0)}"
    if stratum_key == "shift_only":
        if int(record.meta.get("delay_steps", 0) or 0) > 0:
            return "delayed"
        return "static_shift" if record.meta.get("shift") is not None else None
    raise InputError(f"stratum_key must be {' or '.join(map(repr, STRATUM_KEYS))}, got {stratum_key!r}")


def stratified_rate_test(
    records,
    stratum_key: str = "delay_level",
    threshold: float = 0.0,
    units: str = "frac",
) -> StratifiedRateResult:
    """Compare super-additivity rates across strata with a chi-square test.

    Builds the strata x {flagged, not flagged} contingency table and
    computes the Pearson homogeneity statistic without continuity
    correction, df = n_strata - 1. Records that do not belong to any
    stratum under the chosen key (for ``shift_only``: cells with no
    dynamics stressor at all) are excluded. A table with zero or all
    flagged has identical rates and reports chi2 = 0, p = 1.
    """
    recs = list(records)
    groups: dict[str, list[DegradationRecord]] = {}
    for r in recs:
        stratum = _stratum_of(r, stratum_key)
        if stratum is not None:
            groups.setdefault(stratum, []).append(r)
    if len(groups) < 2:
        raise InputError(f"stratified test needs at least 2 nonempty strata, got {len(groups)}")

    strata_summary: dict[str, dict] = {}
    flagged_counts, totals = [], []
    for name in sorted(groups):
        rs = groups[name]
        syn = np.array([_synergy_of(r, units) for r in rs], dtype=float)
        flags = syn > threshold
        n_flag = int(flags.sum())
        strata_summary[name] = {"n": len(rs), "n_superadditive": n_flag, "rate": n_flag / len(rs)}
        flagged_counts.append(n_flag)
        totals.append(len(rs))

    flagged_counts = np.array(flagged_counts, dtype=float)
    totals = np.array(totals, dtype=float)
    grand_flag = flagged_counts.sum()
    grand_n = totals.sum()
    df = len(totals) - 1
    if grand_flag == 0 or grand_flag == grand_n:
        chi2, p = 0.0, 1.0
    else:
        p_hat = grand_flag / grand_n
        expected_yes = totals * p_hat
        expected_no = totals * (1.0 - p_hat)
        observed_no = totals - flagged_counts
        chi2 = float(((flagged_counts - expected_yes) ** 2 / expected_yes).sum() + ((observed_no - expected_no) ** 2 / expected_no).sum())
        from scipy.special import chdtrc

        p = float(chdtrc(df, chi2))
    return StratifiedRateResult(stratum_key=stratum_key, strata=strata_summary, chi2=chi2, df=df, p_value=p)


DEGRADATION_CSV_FIELDS = tuple(f.name for f in fields(DegradationRecord) if f.name != "meta")


def records_to_csv(records, path) -> None:
    """Write degradation records as CSV with a fixed, versioned column set."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=DEGRADATION_CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(r.to_dict() for r in records)
    atomic_write_text(path, buf.getvalue())
