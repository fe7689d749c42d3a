"""Output checks for the benchmark, written apart from sixch.

Nothing here imports sixch: the energy is re-derived from its definition
with scipy.fft applied directly to the raw final state, and the growth
rate is the closed form of the linearized flow.  The checks compare
outputs with properties of the method (mass conservation, energy
dissipation, separation from +-1, the linear decay rate) and with these
independent computations, never with stored outputs.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.fft

LEDGER_COLUMNS = ["t", "dt", "mass", "E_total", "E_willmore", "E_ch_grad", "E_ch_pot",
                  "grad_mu_sq", "min_u", "max_u", "delta_sep", "beta_l2", "grad_beta_l2",
                  "betabp_l1", "M_int", "N_int", "mu_mean", "rejections"]

MASS_TOL = 1e-12  # ledger mass drift and final-mean error
ENERGY_RTOL = 1e-9  # recomputed vs reported final energy, relative to max(1, |E|)
# |C - 2 sigma(k)| <= CDEP_RTOL * |2 sigma(k)|; the README derives the
# 1.5 % offset expected from linearizing at the mean instead of at 0.
CDEP_RTOL = 0.05


# ---------------------------------------------------------------------------
# closed forms


def sigma(k: float, lam: float, eta: float) -> float:
    """Growth rate of wavenumber k for the flow linearized at u = 0."""
    k2 = float(k) ** 2
    return -k2 * (k2 + 1.0 - lam) * (k2 + 1.0 - lam + eta)


def _wavenumbers_sq(counts, lengths, bc: str) -> np.ndarray:
    """|k|^2 per spectral mode in the layout of dctn (neumann) or fftn."""
    total = np.zeros(())
    for axis, (n, length) in enumerate(zip(counts, lengths)):
        if bc == "neumann":
            k = np.arange(n) * np.pi / length
        else:
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        shape = [1] * len(counts)
        shape[axis] = n
        total = total + (k**2).reshape(shape)
    return total


def energy(u: np.ndarray, lengths, bc: str, lam: float, eta: float) -> float:
    """E(u) = int 1/2 (-lap u + f(u))^2 + eta (1/2 |grad u|^2 + F(u)).

    Neumann grids sample cell midpoints and use the orthonormal DCT-II;
    periodic grids use the orthonormal FFT.  Quadrature is the midpoint
    rule, exact for the discrete basis (Parseval for the gradient term).
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(np.abs(u) >= 1.0):
        raise ValueError("energy needs |u| < 1")
    k2 = _wavenumbers_sq(u.shape, lengths, bc)
    if bc == "neumann":
        c = scipy.fft.dctn(u, type=2, norm="ortho")
        minus_lap = scipy.fft.idctn(k2 * c, type=2, norm="ortho")
    else:
        c = scipy.fft.fftn(u, norm="ortho")
        minus_lap = scipy.fft.ifftn(k2 * c, norm="ortho").real
    w = float(np.prod([length / n for length, n in zip(lengths, u.shape)]))
    omega = minus_lap + np.arctanh(u) - lam * u
    potential = 0.5 * ((1.0 + u) * np.log1p(u) + (1.0 - u) * np.log1p(-u)) - 0.5 * lam * u**2
    willmore = 0.5 * float(np.sum(omega**2)) * w
    grad_sq = float(np.sum(k2 * np.abs(c) ** 2)) * w
    return willmore + eta * (0.5 * grad_sq + float(np.sum(potential)) * w)


# ---------------------------------------------------------------------------
# reading outputs


def read_config(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(path)
    return cp


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def read_state(base: Path) -> tuple[np.ndarray, dict]:
    meta = json.loads(base.with_suffix(".json").read_text())
    counts = tuple(int(n) for n in meta["counts"])
    values = np.frombuffer(base.with_suffix(".f64").read_bytes(), dtype="<f8")
    if values.size != int(np.prod(counts)):
        raise ValueError(f"{base}: {values.size} samples for a {counts} grid")
    return values.reshape(counts), meta


def read_ledger(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# per-subcommand checks; each returns a list of failure messages


def check_provenance(outdir: Path, config_path: Path) -> list[str]:
    record = json.loads((outdir / "provenance.json").read_text())
    failures = []
    if record["config_sha256"] != _sha256(config_path):
        failures.append("provenance: config sha256 mismatch")
    if not record["outputs"]:
        failures.append("provenance: no outputs listed")
    for rel, digest in record["outputs"].items():
        if _sha256(outdir / rel) != digest:
            failures.append(f"provenance: sha256 mismatch for {rel}")
    return failures


def check_run(outdir: Path, config_path: Path) -> list[str]:
    """Checks of a `sixch run` output directory against its config."""
    cp = read_config(config_path)
    lam = float(cp["potential"]["lambda"])
    eta = float(cp["potential"]["eta"])
    energy_tol = float(cp["solver"]["energy_tol"])
    mean = float(cp["initial"]["mean"])
    lengths = _floats(cp["grid"]["lengths"])
    bc = cp["grid"]["bc"]
    failures = []

    header, ledger = read_ledger(outdir / "ledger.csv")
    if header != LEDGER_COLUMNS:
        failures.append(f"ledger: header {header}")
        return failures
    col = {name: ledger[:, i] for i, name in enumerate(header)}
    drift = float(np.max(np.abs(col["mass"] - col["mass"][0])))
    if drift > MASS_TOL:
        failures.append(f"ledger: mass drift {drift:.3e} > {MASS_TOL}")
    rise = float(np.max(np.diff(col["E_total"]), initial=-np.inf))
    if rise > energy_tol:
        failures.append(f"ledger: E_total rose by {rise:.3e} > energy_tol {energy_tol}")

    summary = json.loads((outdir / "summary.json").read_text())
    steps = len(ledger) - 1
    if summary["steps"] != steps:
        failures.append(f"summary: steps {summary['steps']} != ledger rows - 1 = {steps}")
    if summary["rejections"] != int(np.sum(col["rejections"])):
        failures.append("summary: rejections disagree with the ledger")
    max_steps = cp["run"].get("max_steps", "").strip()
    t_end = float(cp["run"]["t_end"])
    if max_steps and steps != int(max_steps) and summary["final_time"] < t_end:
        failures.append(f"summary: stopped after {steps} of {max_steps} steps")
    if not max_steps and abs(summary["final_time"] - t_end) > 1e-9 * t_end:
        failures.append(f"summary: final time {summary['final_time']} != t_end {t_end}")

    u, meta = read_state(outdir / "final_state")
    if meta["counts"] != [int(n) for n in _floats(cp["grid"]["counts"])]:
        failures.append(f"final_state: counts {meta['counts']}")
    sup = float(np.max(np.abs(u)))
    if not sup < 1.0:
        failures.append(f"final_state: max |u| = {sup!r} is not inside (-1, 1)")
        return failures
    mean_err = abs(float(np.mean(u)) - mean)
    if mean_err > MASS_TOL:
        failures.append(f"final_state: mean differs from the initial mean by {mean_err:.3e}")
    e_ref = energy(u, lengths, bc, lam, eta)
    e_out = summary["final_energy"]
    if abs(e_ref - e_out) > ENERGY_RTOL * max(1.0, abs(e_ref)):
        failures.append(f"summary: final_energy {e_out!r} != recomputed {e_ref!r}")
    return failures + check_provenance(outdir, config_path)


def check_cdep(outdir: Path, config_path: Path) -> list[str]:
    """Checks of a `sixch cdep` output directory against the linear rate."""
    cp = read_config(config_path)
    lam = float(cp["potential"]["lambda"])
    eta = float(cp["potential"]["eta"])
    length = _floats(cp["grid"]["lengths"])[0]
    mode = int(cp["cdep"]["mode"])
    report = json.loads((outdir / "cdep.json").read_text())
    failures = []
    if report["envelope_ok"] is not True:
        failures.append("cdep: envelope_ok is not true")
    if report["identical_inputs"]:
        failures.append("cdep: the pair was reported identical")
    k = 2.0 * np.pi * mode / length if cp["grid"]["bc"] == "periodic" else np.pi * mode / length
    expected = 2.0 * sigma(k, lam, eta)
    if abs(report["fitted_C"] - expected) > CDEP_RTOL * abs(expected):
        failures.append(f"cdep: fitted C {report['fitted_C']!r} vs 2 sigma(k) = {expected!r}")
    t_end = float(cp["cdep"]["t_end"])
    if abs(report["times"][-1] - t_end) > 1e-9 * t_end:
        failures.append(f"cdep: last time {report['times'][-1]} != t_end {t_end}")
    return failures + check_provenance(outdir, config_path)
