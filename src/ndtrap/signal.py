"""Measurement-trace synthesis and frequency extraction.

Turns motion traces into secular-frequency estimates (Hann-windowed
periodogram, quadratic peak interpolation) and charge trajectories into
frequency-vs-exposure records via the linear charge-frequency map
f = delta_f * N_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .photoemission import ChargeTrajectory
from .trap import MotionTrace

EXPOSURE_UNITS = ("seconds", "shutter_count")

# a peak must beat the in-band median power by this factor: it sits well
# above the ~log(bins) max/median ratio of pure noise, while real peaks
# clear it by orders of magnitude
PEAK_SNR_THRESHOLD = 25.0
# fewest cycles of the band floor a trace must cover for a resolved peak
MIN_CYCLES = 20.0


@dataclass(frozen=True)
class FrequencyTrace:
    """Secular frequency vs accumulated UV exposure."""

    exposures: np.ndarray         # s or shutter count, non-decreasing
    frequencies: np.ndarray       # Hz
    errors: np.ndarray            # Hz, 1 sigma, >= 0
    exposure_unit: str = "seconds"

    def __post_init__(self):
        e = np.asarray(self.exposures, dtype=float)
        f = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.errors, dtype=float)
        if not (len(e) == len(f) == len(s)):
            raise ValueError("exposures, frequencies and errors must have equal length")
        if len(e) and np.any(np.diff(e) < 0):
            raise ValueError("exposures must be non-decreasing")
        if np.any(f < 0):
            raise ValueError("frequencies must be >= 0")
        if np.any(s < 0):
            raise ValueError("frequency errors must be >= 0")
        if self.exposure_unit not in EXPOSURE_UNITS:
            raise ValueError(f"exposure_unit must be one of {EXPOSURE_UNITS}")
        object.__setattr__(self, "exposures", e)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "errors", s)

    def __len__(self):
        return len(self.exposures)


@dataclass(frozen=True)
class FrequencyEstimate:
    frequency: float     # Hz
    error: float         # Hz, half the periodogram bin
    snr: float           # peak power over in-band median power
    bin_width: float     # Hz


def estimate_secular_frequency(trace: MotionTrace, search_band: tuple
                               ) -> Optional[FrequencyEstimate]:
    """Locate the dominant spectral peak of a motion trace within a band.

    Hann-windowed periodogram on the largest power-of-two prefix, peak
    refined by quadratic interpolation of log power.  Returns None when no
    peak beats PEAK_SNR_THRESHOLD times the in-band median power.

    Parameters
    ----------
    trace : MotionTrace
    search_band : (low, high) in Hz, inside the Nyquist range.
    """
    f_lo, f_hi = search_band
    fs = trace.sample_rate
    if not (0 < f_lo < f_hi <= fs / 2):
        raise ValueError(f"search band {search_band} not inside (0, Nyquist]")
    n = len(trace.positions)
    if n < 16:
        raise ValueError("trace too short for spectral estimation")
    if trace.duration * f_lo < MIN_CYCLES:
        raise ValueError(
            f"trace covers {trace.duration * f_lo:.1f} cycles of the band floor, "
            f"need >= {MIN_CYCLES}")
    n_fft = 1 << (n.bit_length() - 1)  # largest power of two <= n
    x = np.asarray(trace.positions[:n_fft], dtype=float)
    x = x - x.mean()
    window = np.hanning(n_fft)
    power = np.abs(np.fft.rfft(x * window)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / fs)
    bin_width = fs / n_fft

    in_band = (freqs >= f_lo) & (freqs <= f_hi)
    if not np.any(in_band):
        raise ValueError("search band narrower than one frequency bin")
    band_idx = np.nonzero(in_band)[0]
    peak = band_idx[np.argmax(power[band_idx])]
    floor = float(np.median(power[band_idx]))
    snr = power[peak] / floor if floor > 0 else math.inf
    if snr < PEAK_SNR_THRESHOLD:
        return None

    # quadratic interpolation on log power; fall back to the raw bin at edges
    offset = 0.0
    if 0 < peak < len(power) - 1 and power[peak - 1] > 0 and power[peak + 1] > 0:
        la, lb, lg = np.log(power[peak - 1: peak + 2])
        denom = la - 2.0 * lb + lg
        if denom < 0:
            offset = 0.5 * (la - lg) / denom
            offset = float(np.clip(offset, -0.5, 0.5))
    return FrequencyEstimate(frequency=(peak + offset) * bin_width,
                             error=0.5 * bin_width, snr=float(snr),
                             bin_width=bin_width)


def synthesize_frequency_trace(traj: ChargeTrajectory, delta_f: float,
                               noise_sigma: float, sample_times,
                               rng: np.random.Generator) -> FrequencyTrace:
    """Frequency readings f = delta_f * |N_e| + noise along a trajectory.

    ``sample_times`` are points on the trajectory's exposure clock (s) at
    which the charge is read; they are also the trace's exposures.  Gaussian
    noise of ``noise_sigma``, drawn from ``rng`` when positive, is added and
    readings are clipped at zero, since a measured oscillation frequency
    cannot be negative.
    """
    if delta_f <= 0:
        raise ValueError("delta_f must be positive")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    sample_times = np.asarray(sample_times, dtype=float)
    freqs = delta_f * np.abs(traj.charge_at(sample_times))
    if noise_sigma > 0:
        freqs = freqs + noise_sigma * rng.standard_normal(len(freqs))
    freqs = np.maximum(freqs, 0.0)
    errors = np.full(len(freqs), float(noise_sigma))
    return FrequencyTrace(exposures=sample_times, frequencies=freqs, errors=errors)
