"""Tests of the benchmark itself: its independent output checks on analytic
cases, and every workload end to end on a tiny grid, traced and untraced.

Run from the root of a checkout:

    python3 -m pytest sixbench/test_sixbench.py
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import run

LAM_ETA = [(3.0, 1.0), (0.0, 0.0), (2.0, -0.5)]


def _grid(n, length, bc):
    h = length / n
    return (np.arange(n) + 0.5) * h if bc == "neumann" else np.arange(n) * h


def _wavenumber(j, length, bc):
    return j * np.pi / length if bc == "neumann" else 2.0 * np.pi * j / length


def _F(r, lam):
    return 0.5 * ((1 + r) * np.log1p(r) + (1 - r) * np.log1p(-r)) - 0.5 * lam * r**2


# ---------------------------------------------------------------------------
# the independent evaluators


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("shape", [(16,), (6, 8, 10)])
def test_energy_of_constant_state(bc, shape):
    m, lam, eta = 0.3, 3.0, 1.0
    lengths = [2.0 + i for i in range(len(shape))]
    expected = np.prod(lengths) * (0.5 * (np.arctanh(m) - lam * m) ** 2 + eta * _F(m, lam))
    got = checks.energy(np.full(shape, m), lengths, bc, lam, eta)
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("lam, eta", LAM_ETA)
def test_energy_of_single_cosine_mode(bc, lam, eta):
    n, length, j, m, a = 64, 2.0 * np.pi, 3, 0.1, 0.5
    k = _wavenumber(j, length, bc)

    def density(x):
        r = m + a * np.cos(k * x)
        omega = a * k**2 * np.cos(k * x) + np.arctanh(r) - lam * r
        return 0.5 * omega**2 + eta * (0.5 * (a * k * np.sin(k * x)) ** 2 + _F(r, lam))

    expected, _ = quad(density, 0.0, length, limit=400, epsabs=0.0, epsrel=1e-13)
    u = m + a * np.cos(k * _grid(n, length, bc))
    assert checks.energy(u, [length], bc, lam, eta) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("lam, eta", LAM_ETA)
def test_second_variation_of_energy_is_the_rate(bc, lam, eta):
    """E(eps cos kx) = eps^2 |Omega| / 4 * S(k) + O(eps^4), sigma = -k^2 S."""
    n, length, j, eps = 64, 2.0 * np.pi, 3, 1e-3
    k = _wavenumber(j, length, bc)
    u = eps * np.cos(k * _grid(n, length, bc))
    measured = 4.0 * checks.energy(u, [length], bc, lam, eta) / (eps**2 * length)
    assert measured == pytest.approx(-checks.sigma(k, lam, eta) / k**2, rel=1e-4)


def test_sigma_closed_form():
    assert checks.sigma(0.0, 3.0, 1.0) == 0.0
    # lam = 3, eta = 1: the unstable band is 1 < k^2 < 2
    assert checks.sigma(1.0, 3.0, 1.0) == 0.0
    assert checks.sigma(np.sqrt(2.0), 3.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert checks.sigma(np.sqrt(1.5), 3.0, 1.0) == pytest.approx(0.375)
    # lam = eta = 0 (the cdep physics): sigma = -k^2 (k^2 + 1)^2
    assert checks.sigma(1.0, 0.0, 0.0) == -4.0
    assert checks.sigma(2.0, 0.0, 0.0) == -100.0


# ---------------------------------------------------------------------------
# the benchmark end to end


def _declared(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_untraced(name):
    result = run.run_workload(name, seed=5, seconds=0.1, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _declared(False)}
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_traced_counts_repeat(name):
    first = run.run_workload(name, seed=5, seconds=0.1, trace=True, tiny=True)
    second = run.run_workload(name, seed=5, seconds=0.1, trace=True, tiny=True)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in _declared(True)}
    for m in _declared(True):
        if m["unit"] not in ("s", "ms"):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    assert first["metrics"]["stepper.accepted_steps"] > 0


def test_checks_reject_a_wrong_energy():
    run.run_workload("bench1d", seed=5, seconds=0.1, trace=False, tiny=True)
    outdir = run.OUT_DIR / "bench1d" / "op0"
    config = outdir.parent / "bench1d-tiny.ini"
    assert checks.check_run(outdir, config) == []
    summary = json.loads((outdir / "summary.json").read_text())
    summary["final_energy"] *= 1.0 + 1e-6
    (outdir / "summary.json").write_text(json.dumps(summary))
    failures = checks.check_run(outdir, config)
    assert any("final_energy" in f for f in failures)
    assert any("summary.json" in f for f in failures)  # its provenance hash too


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "sixbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "sixbench/run.py", "--workload", "bench1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
