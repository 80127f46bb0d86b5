"""Oracles of the synthetic generator, helpers of the tests, each of which
the generator must match bit for bit:

- its recurrences as Python float loops, one path at a time, for
  `synth._recur`, which runs a block of paths at once;
- `ref_assemble_patient`, which mixes (`ref_mix`) and rescales a patient's
  paths one vital at a time through dicts, for `synth._assemble_patient`,
  which does all three vitals as rows of one (3, n) array. It keeps a
  constant row at its latent mean unclipped, as the generator once did; the
  tests hand it that mean clipped. Here `_patient_record`
  returns the unrounded (n, 3) values in place of a record, so that the
  values are compared before rounding can hide a difference."""

from __future__ import annotations

import numpy as np

from vitalnet.synth import VITALS, Dynamics, GroupSpec

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


def ref_mix(group: GroupSpec, dyn: Dynamics, cadence_min: int, paths,
            phase) -> dict[str, np.ndarray]:
    """Each vital's series from a patient's five paths, before rescaling."""
    spikes, dips, ar_hr, ar_sbp, ar_ind = paths.T
    t_hours = np.arange(len(paths)) * (cadence_min / 60.0)
    rho = dyn.sbp_dbp_corr
    ar_dbp = rho * ar_sbp + np.sqrt(1.0 - rho * rho) * ar_ind
    circadian = group.circadian_hr_amp * np.sin(2.0 * np.pi * (t_hours + phase) / 24.0)

    return {
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


def ref_assemble_patient(pid: str, group: GroupSpec, dyn: Dynamics, age: int,
                         cadence_min: int, paths, mu, mn, phase,
                         start_minute) -> np.ndarray:
    """A patient from its five paths and latent draws: the paths mixed per
    vital, then rescaled so each series' mean and minimum land on mu and mn."""
    n = len(paths)
    z = ref_mix(group, dyn, cadence_min, paths, phase)
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


def _patient_record(pid, age, label, start_minute, cadence_min, channels) -> np.ndarray:
    """The (n, 3) values that `ref_assemble_patient` hands its record, unrounded."""
    return np.stack([channels[v] for v in VITALS], axis=1)
