"""Synthetic cohort generation calibrated to published group statistics.

Each generated patient gets a latent per-vital mean and minimum drawn
around the midpoints of the target intervals for its test-result group,
then an AR(1)-perturbed series (circadian rhythm on HR, shared positive
burst process on all channels, correlated blood-pressure noise) that is
affinely rescaled so the realized series mean and minimum land on the
latent draws. Group-level confidence intervals therefore concentrate
inside the target intervals by construction.

Each patient's draws are made in turn; the AR(1) and burst recurrences,
which draw nothing, then run for a block of patients at once (`_recur`).
A patient's vitals are one (3, n) array, a row per vital; a constant row,
as every single-sample patient's is, stays at its latent mean, unclipped.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .data import Cohort, PatientRecord, resample
from .errors import ValidationError, read_json, require
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
# The cohort is held in memory; 10,000 per bin (80,000 patients) is far past
# the default cohort's 70.
MAX_PATIENTS_PER_BIN = 10_000
# The whole cohort is held in memory, ~32 bytes a row as arrays: 10 million
# rows is ~60x the x4 cohort's 166k rows (~750k at worst for its config) and
# keeps a config of valid-looking stays from exhausting the machine. A block
# of patients adds its recurrence buffer, at most 1 MiB (`_BLOCK_CELLS`) or
# 40 B a row for one longer patient, less than one path's Python lists took.
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


def _pair(what: str, value) -> tuple:
    """A config's [lo, hi] list as a tuple; any other shape is rejected."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{what} must be a pair [lo, hi], got {value!r}")
    return tuple(value)


def _object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {value!r}")
    return value


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
                    stay_days=_pair("stay_days", g["stay_days"]),
                    targets={
                        v: {s: _pair(f"target {v} {s}", iv)
                            for s, iv in _object(f"targets for {v}", cells).items()}
                        for v, cells in _object("targets", g["targets"]).items()
                    },
                    circadian_hr_amp=g["circadian_hr_amp"],
                )
                for g in raw["groups"]
            ]
            dyn_raw = raw.get("dynamics", {})
            cfg = cls(
                seed=raw["seed"],
                age_bins=[_pair("age bin", b) for b in raw["age_bins"]],
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
    return SynthConfig.from_dict(read_json(path))


def default_config() -> SynthConfig:
    raw = resources.files(__package__).joinpath("synth_default.json").read_text("utf-8")
    return SynthConfig.from_dict(json.loads(raw))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# physiological clipping bounds, one (lo, hi) row per vital
_CLIP = np.array([(30.0, 200.0), (60.0, 250.0), (20.0, 150.0)])


# Recurrence cells per block: a block's time-major buffer holds at most this
# many float64 values (1 MiB), unless one patient alone needs more.
_BLOCK_CELLS = 1 << 17


def _recur(buf: np.ndarray, coefs: np.ndarray, lengths: np.ndarray) -> None:
    """x_t = coefs * x_{t-1} + buf[t], in place down each column of the
    time-major `buf` from its first row to its length in `lengths`. Lengths
    do not rise, so the columns still running are a prefix. Each step is one
    multiply and one add, each rounded, as in a loop over Python floats."""
    acc = np.empty_like(coefs)
    start = 1
    for stop in np.unique(lengths[lengths > 1]).tolist():
        k = np.count_nonzero(lengths >= stop)
        c, a, rows = coefs[:k], acc[:k], list(buf[start - 1:stop, :k])
        for prev, row in zip(rows, rows[1:]):
            np.multiply(c, prev, out=a)
            np.add(a, row, out=row)
        start = stop


def _blocks(lengths: list[int]):
    """Runs of consecutive patients whose five series, at the longest one's
    length, fit in `_BLOCK_CELLS`; a patient that needs more is a run alone."""
    start, longest = 0, 0
    for i, n in enumerate(lengths):
        longest = max(longest, n)
        if i > start and 5 * longest * (i + 1 - start) > _BLOCK_CELLS:
            yield start, i
            start, longest = i, n
    yield start, len(lengths)


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

        lengths = [int(float(days) * 24.0 / (cadence / 60.0)) + 1
                   for days, cadence in zip(durations, cadences)]
        for lo, hi in _blocks(lengths):
            patients.extend(_generate_block(rng, group, dyn, lo, ages[lo:hi], cadences[lo:hi],
                                            lengths[lo:hi]))
    return Cohort(patients=patients)


def _generate_block(rng, group: GroupSpec, dyn: Dynamics, first: int, ages, cadences,
                    lengths) -> list[PatientRecord]:
    """The group's patients from index `first` on, one block. Each patient's
    draws are made in turn, in the generator's order, and the five series
    that its recurrences read are written to its columns of one time-major
    buffer, longest patient first. Then every recurrence runs at once
    (`_recur`), and each patient is assembled from its five paths."""
    lengths = np.array(lengths)
    cols = np.empty(len(lengths), int)
    cols[np.argsort(-lengths, kind="stable")] = np.arange(0, 5 * len(lengths), 5)
    buf = np.empty((lengths.max(), 5 * len(lengths)))
    coefs = np.empty(5 * len(lengths))
    mids = np.array([[_target_mid(group, v, s) for s in ("mean", "min")] for v in VITALS])
    sds = np.array([[dyn.mean_sd[v], dyn.min_sd[v]] for v in VITALS])
    gains = np.array([[dyn.base_sd[v], dyn.spike_gain[v], dyn.dip_gain[v]] for v in VITALS])
    latent = []
    for cadence, n, c in zip(cadences, lengths, cols):
        dt_hours = cadence / 60.0
        coef, d = dyn.ar_coef_hourly**dt_hours, dyn.burst_decay_hourly**dt_hours
        # latent per-patient targets, (3, 1) columns: series mean and minimum
        mu, raw_min = rng.normal(mids, sds).T[:, :, None]
        mn = np.minimum(raw_min, mu - 5.0)
        # shared structure: positive bursts on all channels, dips on HR,
        # correlated blood-pressure noise. A burst's first value is its first
        # impulse (d * 0.0 + a is a, as a >= +0.0); an AR(1) path's is a draw.
        for j, rate in enumerate((dyn.spike_rate_per_hour, dyn.dip_rate_per_hour)):
            hits = rng.random(n) < rate * dt_hours
            buf[:n, c + j] = rng.exponential(1.0, size=n) * hits
        for j in (2, 3, 4):  # HR, SBP and the independent part of DBP
            buf[:n, c + j] = rng.standard_normal(n) * np.sqrt(1.0 - coef * coef)
            buf[0, c + j] = rng.standard_normal()
        coefs[c:c + 5] = (d, d, coef, coef, coef)
        phase = rng.uniform(0.0, 24.0)
        latent.append((mu, mn, phase, int(rng.integers(0, _START_SPREAD_DAYS * 24 * 60))))
    _recur(buf, coefs, np.repeat(-np.sort(-lengths), 5))
    return [_assemble_patient(f"SYN-{group.label}-{first + i:03d}", group, dyn, gains, age,
                              cadence, buf[:n, c:c + 5], *drawn)
            for i, (age, cadence, n, c, drawn) in enumerate(zip(ages, cadences, lengths,
                                                               cols, latent))]


def _assemble_patient(pid: str, group: GroupSpec, dyn: Dynamics, gains, age: int,
                      cadence_min: int, paths, mu, mn, phase, start_minute) -> PatientRecord:
    """A patient from its five paths and latent draws, one (3, n) row per vital:
    each mixed row is rescaled so its mean and minimum land on mu and mn, then
    clipped; a row with spread <= 0 (a constant path) stays at mu, unclipped."""
    spikes, dips = paths.T[:2]
    ar = paths.T[2:].copy()  # hr, sbp and the independent part of dbp
    rho = dyn.sbp_dbp_corr
    ar[2] = rho * ar[1] + np.sqrt(1.0 - rho * rho) * ar[2]
    base, spike, dip = gains.T[:, :, None]
    t_hours = np.arange(len(paths)) * (cadence_min / 60.0)
    z = base * ar
    z[0] += group.circadian_hr_amp * np.sin(2.0 * np.pi * (t_hours + phase) / 24.0)
    z += spike * spikes
    z -= dip * dips

    z_mean = z.mean(axis=1, keepdims=True)
    spread = z_mean - z.min(axis=1, keepdims=True)
    live = spread > 0
    scale = np.divide(mu - mn, spread, out=np.zeros_like(spread), where=live)
    x = np.where(live, np.clip(mu + (z - z_mean) * scale, _CLIP[:, :1], _CLIP[:, 1:]), mu)
    x[2] = np.maximum(np.minimum(x[2], x[1] - 10.0), _CLIP[2, 0])
    return _patient_record(pid, age, group.label, start_minute, cadence_min, x.T.copy())


def _round2(x: np.ndarray) -> np.ndarray:
    """Elementwise Python `round(v, 2)`. `np.round` agrees unless x*100 is within
    rounding error of a half-integer, |x| >= 1e7 or x is not finite: Python rounds those."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 100.0
        redo = ~(np.abs(x) < 1e7) | (np.abs(y - np.floor(y) - 0.5) < 1e-6)
        out = np.round(x, 2)
    out[redo] = [round(v, 2) for v in x[redo].tolist()]
    return out


def _patient_record(pid, age, label, start_minute, cadence_min, values) -> PatientRecord:
    """A sample every cadence_min minutes from start_minute past the base date; values (n, 3)."""
    steps = np.arange(len(values)) * np.timedelta64(cadence_min, "m")
    times = _BASE_DATE + np.timedelta64(start_minute, "m") + steps
    return PatientRecord(patient_id=pid, age=age, label=label, times=times,
                         values=_round2(values))


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


def patient_feature_table(cohort: Cohort) -> dict[str, np.ndarray]:
    """Per-patient summary features over hourly-resampled series.

    Returns arrays keyed 'label', 'age', and '<vital>_<stat>', one row per
    patient in cohort order. Each grid is copied once to a contiguous (3, T)
    array, whose rows reduce to the same pairwise sums as its strided columns.
    """
    feats = np.empty((len(STATS), len(VITALS), len(cohort)))
    for j, p in enumerate(cohort.patients):
        grid = np.ascontiguousarray(resample(p).values.T)
        for k, stat in enumerate(STATS):  # np.mean, np.std, np.min, np.max
            getattr(np, stat)(grid, axis=1, out=feats[k, :, j])
    table = {f"{v}_{s}": feats[k, i] for i, v in enumerate(VITALS) for k, s in enumerate(STATS)}
    return {**table, "label": np.asarray([p.label for p in cohort.patients]),
            "age": np.asarray([p.age for p in cohort.patients])}


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
                ci = confidence_interval(values)
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
