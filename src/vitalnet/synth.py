"""Synthetic cohort generation calibrated to published group statistics.

Each generated patient gets a latent per-vital mean and minimum drawn
around the midpoints of the target intervals for its test-result group,
then an AR(1)-perturbed series (circadian rhythm on HR, shared positive
burst process on all channels, correlated blood-pressure noise) that is
affinely rescaled so the realized series mean and minimum land on the
latent draws. Group-level confidence intervals therefore concentrate
inside the target intervals by construction.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .data import Cohort, PatientRecord, resample
from .errors import ValidationError, require
from .stats import confidence_interval

VITALS = ("hr", "sbp", "dbp")
STATS = ("mean", "std", "min", "max")

_BASE_DATE = np.datetime64("2020-03-21", "us")  # UTC
_START_SPREAD_DAYS = 90  # each patient starts up to this long after _BASE_DATE


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The longest stay whose samples all fall before year 10000: load_cohort reads
# back years 1-9999 only, so a longer stay would write an unreadable cohort.
MAX_STAY_DAYS = (
    int((np.datetime64("10000-01-01") - _BASE_DATE) // np.timedelta64(1, "D"))
    - _START_SPREAD_DAYS
)
# A cadence longer than the longest stay never gives a second sample.
MAX_CADENCE_MINUTES = MAX_STAY_DAYS * 24 * 60
# Patients are built one at a time and the cohort is held in memory; 10,000
# per bin (80,000 patients) is far past the default cohort's 70.
MAX_PATIENTS_PER_BIN = 10_000
# The whole cohort is held in memory, ~32 bytes a row as arrays: 10 million
# rows is ~60x the x4 cohort's 166k rows (~750k at worst for its config) and
# keeps a config of valid-looking stays from exhausting the machine.
MAX_ROWS = 10_000_000


@dataclass
class GroupSpec:
    """Targets and cohort composition for one test-result group."""

    label: int
    patients_per_bin: list[int]
    stay_days: tuple[float, float]
    targets: dict[str, dict[str, tuple[float, float]]]
    circadian_hr_amp: float

    def validate(self, n_bins: int) -> None:
        require("group label", self.label, numbers.Integral, 0, 1)
        if len(self.patients_per_bin) != n_bins:
            raise ValidationError("patients_per_bin must match age_bins length")
        for c in self.patients_per_bin:
            require("patient count", c, numbers.Integral, 0, MAX_PATIENTS_PER_BIN)
        for days in self.stay_days:
            require("stay days", days, hi=MAX_STAY_DAYS)
        lo, hi = self.stay_days
        if not 0 < lo <= hi:
            raise ValidationError(f"bad stay-duration range {self.stay_days}")
        require("circadian_hr_amp", self.circadian_hr_amp)
        for vital in VITALS:
            cells = self.targets.get(vital)
            if cells is None or set(cells) != set(STATS):
                raise ValidationError(f"targets for {vital} must cover {STATS}")
            for stat, (t_lo, t_hi) in cells.items():
                require(f"target {vital} {stat}", t_lo)
                require(f"target {vital} {stat}", t_hi)
                if not t_lo < t_hi:
                    raise ValidationError(
                        f"target interval for {vital} {stat} has lo >= hi"
                    )


@dataclass
class Dynamics:
    """Within-patient dynamics constants (shared across groups)."""

    ar_coef_hourly: float = 0.9
    mean_sd: dict[str, float] = field(
        default_factory=lambda: {"hr": 0.9, "sbp": 1.2, "dbp": 0.7}
    )
    min_sd: dict[str, float] = field(
        default_factory=lambda: {"hr": 1.4, "sbp": 2.2, "dbp": 1.2}
    )
    base_sd: dict[str, float] = field(
        default_factory=lambda: {"hr": 0.7, "sbp": 0.7, "dbp": 0.4}
    )
    spike_gain: dict[str, float] = field(
        default_factory=lambda: {"hr": 1.1, "sbp": 0.65, "dbp": 1.1}
    )
    dip_gain: dict[str, float] = field(
        default_factory=lambda: {"hr": 0.55, "sbp": 0.7, "dbp": 1.0}
    )
    spike_rate_per_hour: float = 0.05
    dip_rate_per_hour: float = 0.025
    burst_decay_hourly: float = 0.9
    sbp_dbp_corr: float = 0.7

    def validate(self) -> None:
        require("ar_coef_hourly", self.ar_coef_hourly, lo=0.0, hi=1.0)
        require("burst_decay_hourly", self.burst_decay_hourly, lo=0.0, hi=1.0)
        require("sbp_dbp_corr", self.sbp_dbp_corr, lo=-1.0, hi=1.0)
        require("spike_rate_per_hour", self.spike_rate_per_hour, lo=0.0)
        require("dip_rate_per_hour", self.dip_rate_per_hour, lo=0.0)
        for name in ("mean_sd", "min_sd", "base_sd", "spike_gain", "dip_gain"):
            per_vital = getattr(self, name)
            if not isinstance(per_vital, dict) or set(per_vital) != set(VITALS):
                raise ValidationError(f"dynamics {name} must map each of {VITALS}")
            for vital in VITALS:
                require(f"{name} {vital}", per_vital[vital],
                        lo=0.0 if name.endswith("_sd") else -math.inf)


@dataclass
class SynthConfig:
    seed: int
    age_bins: list[tuple[int, int]]
    cadences_minutes: list[int]
    cadence_weights: list[float]
    groups: list[GroupSpec]
    dynamics: Dynamics = field(default_factory=Dynamics)

    def validate(self) -> None:
        require("seed", self.seed, numbers.Integral, 0)
        if len(self.cadences_minutes) != len(self.cadence_weights):
            raise ValidationError("cadence weights must match cadence set")
        for c in self.cadences_minutes:
            require("cadence minutes", c, numbers.Integral, 1, MAX_CADENCE_MINUTES)
        for w in self.cadence_weights:
            require("cadence weight", w, lo=0.0)
        if sum(self.cadence_weights) <= 0:
            raise ValidationError("cadence weights must be non-negative, not all zero")
        for lo, hi in self.age_bins:
            require("age bin bound", lo, numbers.Integral)
            require("age bin bound", hi, numbers.Integral)
            if not 21 <= lo <= hi <= 100:
                raise ValidationError(f"age bin ({lo}, {hi}) outside [21, 100]")
        for g in self.groups:
            g.validate(len(self.age_bins))
        if sorted(g.label for g in self.groups) != [0, 1]:
            raise ValidationError("config must define exactly one group per label")
        require("worst-case synth rows", self.max_rows(), hi=MAX_ROWS)
        self.dynamics.validate()

    def max_rows(self) -> float:
        """Upper bound on the generated rows: every patient at its group's
        longest stay, sampled at the shortest cadence that has weight."""
        cadence = min(c for c, w in zip(self.cadences_minutes, self.cadence_weights) if w > 0)
        return sum(sum(g.patients_per_bin) * (g.stay_days[1] * 24 * 60 / cadence + 1)
                   for g in self.groups)

    # -- JSON round trip ----------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        try:
            groups = [
                GroupSpec(
                    label=g["label"],
                    patients_per_bin=list(g["patients_per_bin"]),
                    stay_days=tuple(g["stay_days"]),
                    targets={
                        v: {s: tuple(iv) for s, iv in cells.items()}
                        for v, cells in g["targets"].items()
                    },
                    circadian_hr_amp=g["circadian_hr_amp"],
                )
                for g in raw["groups"]
            ]
            dyn_raw = raw.get("dynamics", {})
            cfg = cls(
                seed=raw["seed"],
                age_bins=[tuple(b) for b in raw["age_bins"]],
                cadences_minutes=list(raw["cadences_minutes"]),
                cadence_weights=list(raw["cadence_weights"]),
                groups=groups,
                dynamics=Dynamics(**dyn_raw),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad synth config: {exc}") from None
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        """The config as JSON data: tuples become lists."""
        return json.loads(json.dumps(asdict(self)))


def load_config(path) -> SynthConfig:
    with open(path, encoding="utf-8") as fh:
        return SynthConfig.from_dict(json.load(fh))


def default_config() -> SynthConfig:
    raw = resources.files("vitalnet").joinpath("synth_default.json").read_text("utf-8")
    return SynthConfig.from_dict(json.loads(raw))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# physiological clipping bounds per channel
_CLIP = {"hr": (30.0, 200.0), "sbp": (60.0, 250.0), "dbp": (20.0, 150.0)}


def _ar1(rng, n: int, coef: float) -> np.ndarray:
    """Unit-variance stationary AR(1) path of length n."""
    eps = (rng.standard_normal(n) * np.sqrt(1.0 - coef * coef)).tolist()
    x = rng.standard_normal()
    out = [x]
    for e in eps[1:]:  # Python floats: the same float64 operations, in order
        x = coef * x + e
        out.append(x)
    return np.array(out)


def _burst(rng, n: int, rate: float, decay: float, dt_hours: float) -> np.ndarray:
    """Non-negative decaying burst process (sparse exponential impulses)."""
    hits = rng.random(n) < rate * dt_hours
    amps = (rng.exponential(1.0, size=n) * hits).tolist()
    d = decay**dt_hours
    acc = 0.0
    out = []
    for a in amps:
        acc = d * acc + a
        out.append(acc)
    return np.array(out)


def _cadence_assignment(config: SynthConfig, n: int) -> list[int]:
    """Largest-remainder split of n patients over the cadence weights."""
    weights = np.asarray(config.cadence_weights, dtype=float)
    weights = weights / weights.sum()
    quota = weights * n
    counts = np.floor(quota).astype(int)
    remainder = quota - counts
    for i in np.argsort(-remainder)[: n - counts.sum()]:
        counts[i] += 1
    out = []
    for cadence, k in zip(config.cadences_minutes, counts):
        out.extend([cadence] * int(k))
    return out


def _target_mid(group: GroupSpec, vital: str, stat: str) -> float:
    lo, hi = group.targets[vital][stat]
    return 0.5 * (lo + hi)


def generate_cohort(config: SynthConfig) -> Cohort:
    """Deterministically generate a cohort matching the configured targets."""
    config.validate()
    dyn = config.dynamics
    rng = np.random.default_rng(config.seed)
    patients: list[PatientRecord] = []

    for group in sorted(config.groups, key=lambda g: g.label):
        n_group = sum(group.patients_per_bin)
        if n_group == 0:
            continue
        lo_days, hi_days = group.stay_days
        if n_group == 1:
            durations = np.array([0.5 * (lo_days + hi_days)])
        else:
            durations = np.linspace(lo_days, hi_days, n_group)
        durations = durations + rng.uniform(-0.5, 0.5, size=n_group)
        durations = np.clip(durations, lo_days, hi_days)
        cadences = _cadence_assignment(config, n_group)
        rng.shuffle(cadences)

        ages = []
        for (bin_lo, bin_hi), count in zip(config.age_bins, group.patients_per_bin):
            ages.extend(rng.integers(bin_lo, bin_hi + 1, size=count).tolist())

        for i in range(n_group):
            pid = f"SYN-{group.label}-{i:03d}"
            patients.append(
                _generate_patient(
                    rng,
                    pid,
                    group,
                    dyn,
                    age=int(ages[i]),
                    duration_days=float(durations[i]),
                    cadence_min=int(cadences[i]),
                )
            )
    return Cohort(patients=patients)


def _generate_patient(
    rng, pid: str, group: GroupSpec, dyn: Dynamics, age, duration_days, cadence_min
) -> PatientRecord:
    dt_hours = cadence_min / 60.0
    n = int(duration_days * 24.0 / dt_hours) + 1
    t_hours = np.arange(n) * dt_hours
    coef = dyn.ar_coef_hourly**dt_hours
    decay = dyn.burst_decay_hourly

    # latent per-patient targets: series mean and minimum per vital
    mu, mn = {}, {}
    for vital in VITALS:
        mu[vital] = rng.normal(_target_mid(group, vital, "mean"), dyn.mean_sd[vital])
        raw_min = rng.normal(_target_mid(group, vital, "min"), dyn.min_sd[vital])
        mn[vital] = min(raw_min, mu[vital] - 5.0)

    # shared structure: positive bursts on all channels, dips on HR,
    # correlated blood-pressure noise
    spikes = _burst(rng, n, dyn.spike_rate_per_hour, decay, dt_hours)
    dips = _burst(rng, n, dyn.dip_rate_per_hour, decay, dt_hours)
    ar_hr = _ar1(rng, n, coef)
    ar_sbp = _ar1(rng, n, coef)
    ar_ind = _ar1(rng, n, coef)
    rho = dyn.sbp_dbp_corr
    ar_dbp = rho * ar_sbp + np.sqrt(1.0 - rho * rho) * ar_ind
    phase = rng.uniform(0.0, 24.0)
    circadian = group.circadian_hr_amp * np.sin(2.0 * np.pi * (t_hours + phase) / 24.0)

    z = {
        "hr": dyn.base_sd["hr"] * ar_hr
        + circadian
        + dyn.spike_gain["hr"] * spikes
        - dyn.dip_gain["hr"] * dips,
        "sbp": dyn.base_sd["sbp"] * ar_sbp
        + dyn.spike_gain["sbp"] * spikes
        - dyn.dip_gain["sbp"] * dips,
        "dbp": dyn.base_sd["dbp"] * ar_dbp
        + dyn.spike_gain["dbp"] * spikes
        - dyn.dip_gain["dbp"] * dips,
    }

    start_minute = int(rng.integers(0, _START_SPREAD_DAYS * 24 * 60))
    channels = {}
    for vital in VITALS:
        zc = z[vital]
        z_mean = zc.mean()
        spread = z_mean - zc.min()
        if spread <= 0:  # constant latent path; keep the flat series at mu
            channels[vital] = np.full(n, mu[vital])
            continue
        scale = (mu[vital] - mn[vital]) / spread
        x = mu[vital] + (zc - z_mean) * scale
        lo, hi = _CLIP[vital]
        channels[vital] = np.clip(x, lo, hi)
    channels["dbp"] = np.minimum(channels["dbp"], channels["sbp"] - 10.0)
    channels["dbp"] = np.clip(channels["dbp"], _CLIP["dbp"][0], None)

    return _patient_record(pid, age, group.label, start_minute, cadence_min, channels)


def _round2(x: np.ndarray) -> np.ndarray:
    """Elementwise Python `round(v, 2)`. `np.round` agrees unless x*100 is within
    rounding error of a half-integer, |x| >= 1e7 or x is not finite: Python rounds those."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 100.0
        redo = ~(np.abs(x) < 1e7) | (np.abs(y - np.floor(y) - 0.5) < 1e-6)
        out = np.round(x, 2)
    out[redo] = [round(v, 2) for v in x[redo].tolist()]
    return out


def _patient_record(pid, age, label, start_minute, cadence_min, channels) -> PatientRecord:
    """A sample every cadence_min minutes from start_minute past the base date."""
    steps = np.arange(len(channels["hr"])) * np.timedelta64(cadence_min, "m")
    times = _BASE_DATE + np.timedelta64(start_minute, "m") + steps
    values = _round2(np.stack([channels[v] for v in VITALS], axis=1))
    return PatientRecord(patient_id=pid, age=age, label=label, times=times, values=values)


# ---------------------------------------------------------------------------
# Calibration report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellReport:
    label: int
    vital: str
    stat: str
    ci: tuple[float, float]
    target: tuple[float, float]
    overlaps: bool


@dataclass
class CalibrationReport:
    cells: list[CellReport]
    resting_hr: dict[int, dict[str, float | bool]]

    def all_mean_cells_overlap(self) -> bool:
        return all(c.overlaps for c in self.cells if c.stat == "mean")


def patient_feature_table(cohort: Cohort) -> dict[str, np.ndarray]:
    """Per-patient summary features over hourly-resampled series.

    Returns arrays keyed 'label', 'age', and '<vital>_<stat>', one row per
    patient in cohort order.
    """
    rows: dict[str, list[float]] = {
        f"{v}_{s}": [] for v in VITALS for s in STATS
    }
    rows["label"] = []
    rows["age"] = []
    for p in cohort.patients:
        series = resample(p)
        rows["label"].append(p.label)
        rows["age"].append(p.age)
        for ci, vital in enumerate(VITALS):
            col = series.values[:, ci]
            rows[f"{vital}_mean"].append(float(col.mean()))
            rows[f"{vital}_std"].append(float(col.std()))
            rows[f"{vital}_min"].append(float(col.min()))
            rows[f"{vital}_max"].append(float(col.max()))
    return {k: np.asarray(v) for k, v in rows.items()}


def calibration_report(
    cohort: Cohort, config: SynthConfig | None = None
) -> CalibrationReport:
    """Compare the cohort's per-group feature CIs against the target intervals.

    For each (vital, statistic) cell and each label, computes the 95% CI of
    the per-patient feature and reports whether it overlaps the configured
    target; also reports mean resting HR (per-patient minimum HR) per label
    against the target's midpoint reference.
    """
    if config is None:
        config = default_config()
    table = patient_feature_table(cohort)
    labels = table["label"]
    if len(cohort) == 0 or len(set(labels.tolist())) < 2:
        raise ValidationError("calibration report needs a non-empty two-label cohort")
    cells = []
    resting = {}
    for group in sorted(config.groups, key=lambda g: g.label):
        mask = labels == group.label
        if mask.sum() < 2:
            raise ValidationError(
                f"need at least 2 patients with label {group.label}"
            )
        for vital in VITALS:
            for stat in STATS:
                values = table[f"{vital}_{stat}"][mask]
                ci = confidence_interval(values, 0.95)
                target = group.targets[vital][stat]
                overlaps = ci[0] <= target[1] and target[0] <= ci[1]
                cells.append(
                    CellReport(
                        label=group.label,
                        vital=vital,
                        stat=stat,
                        ci=ci,
                        target=target,
                        overlaps=overlaps,
                    )
                )
        observed = float(table["hr_min"][mask].mean())
        reference = _target_mid(group, "hr", "min")
        resting[group.label] = {
            "observed_mean": observed,
            "reference": reference,
            "within_5_bpm": abs(observed - reference) <= 5.0,
        }
    return CalibrationReport(cells=cells, resting_hr=resting)
