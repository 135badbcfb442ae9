"""CSV and JSON serialization for traces, curves, sweep tables and fits.

All writers are deterministic: same inputs produce byte-identical files
(floats via repr, JSON keys sorted, no timestamps).
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

import numpy as np

from .fitters import FitResult
from .signal import FrequencyTrace


class DataFormatError(ValueError):
    """Malformed input data file; message names the offending row."""


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, columns):
    """Write columns (equal-length sequences of numbers or strings) as UTF-8
    CSV with a header row."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must have equal length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_fmt(c[i]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_columns(path, expected_columns: Optional[int] = None):
    """Read a headered numeric CSV into (header, list of float arrays)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    n_cols = len(header)
    if expected_columns is not None and n_cols < expected_columns:
        raise DataFormatError(
            f"{path}: expected at least {expected_columns} columns, found {n_cols}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != n_cols:
            raise DataFormatError(f"{path}: row {i} has {len(parts)} fields, expected {n_cols}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise DataFormatError(f"{path}: row {i} is not numeric: {ln!r}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = np.asarray(rows)
    return header, [data[:, j] for j in range(n_cols)]


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def fit_result_to_dict(result: FitResult, model: str = "") -> dict:
    return {
        "model": model,
        "parameters": result.parameters,
        "errors": result.errors,
        "covariance": result.covariance,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "dof": result.dof,
        "flags": list(result.flags),
        "derived": {k: _json_safe(v) for k, v in result.derived.items()},
    }


def write_survival_csv(path, curve):
    write_csv(path, ["t_s", "n_alive"], [curve.times, curve.n_alive])


def write_motion_csv(path, trace):
    write_csv(path, ["t_s", "x_m"], [trace.times, trace.positions])


def write_trajectory_csv(path, traj):
    write_csv(path, ["t_s", "charge_count"], [traj.times, traj.charges])


def write_frequency_trace_csv(path, trace: FrequencyTrace):
    write_csv(path, ["exposure", "frequency_hz", "frequency_error_hz"],
              [trace.exposures, trace.frequencies, trace.errors])


def read_frequency_trace_csv(path, exposure_unit: str = "seconds") -> FrequencyTrace:
    header, cols = read_csv_columns(path, expected_columns=2)
    exposures, freqs = cols[0], cols[1]
    errors = cols[2] if len(cols) > 2 else np.zeros(len(freqs))
    return FrequencyTrace(exposures=exposures, frequencies=freqs, errors=errors,
                          exposure_unit=exposure_unit)


def write_sweep_csv(path, points, x_name: str):
    write_csv(path, [x_name, "lifetime_s", "lifetime_error_s", "status"],
              [[p.x for p in points], [p.lifetime for p in points],
               [p.lifetime_error for p in points],
               ["|".join(p.flags) or "ok" for p in points]])


def read_sweep_csv(path):
    """Read (x, lifetime, lifetime_error) triples, skipping flagged rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise DataFormatError(f"{path}: file is empty")
    xs, taus, errs = [], [], []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) < 3:
            raise DataFormatError(f"{path}: row {i} has too few fields")
        if len(parts) > 3 and parts[3] != "ok":
            continue
        try:
            xs.append(float(parts[0]))
            taus.append(float(parts[1]))
            errs.append(float(parts[2]))
        except ValueError:
            raise DataFormatError(f"{path}: row {i} is not numeric: {ln!r}") from None
    return np.asarray(xs), np.asarray(taus), np.asarray(errs)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
