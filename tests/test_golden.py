"""Golden outputs of short `sixch run` and `sixch cdep` runs, in two tiers.

A refactor described as "same behaviour" must leave `ledger.csv`,
`summary.json` and `final_state.f64` of a run, and `cdep.json` of a
paired run, byte-identical.  The hashes were re-recorded when mu moved
to its one coefficient-space assembly (`model._mu_hat`, for the State
and the Newton residual alike) and F to the logarithms of the beta trio,
which moves the outputs by roundoff and the Newton iterates within the
Newton tolerance; the Newton runs again when the Jacobian action moved
to the same assembly (`model._assemble`), which moves its Krylov solves
by roundoff and so the Newton iterates and step sizes, and when the
Krylov solves took the Jacobian's frozen-coefficient symbol as their
preconditioner, which moves the Newton iterates within the Newton
tolerance and so the step sizes; on the environment named in
`RECORDED_ON`.
Bit-identity is a property of one numpy/scipy build on one CPU feature
set (numpy dispatches log1p/exp to its AVX512_SKX kernels where the CPU
has them and `NPY_DISABLE_CPU_FEATURES` leaves them on; AVX512F alone
does not decide it), so elsewhere the hash test is skipped rather than
compared.

The portable tier runs everywhere: the ledger rows of two runs, stored
in `tests/golden/` (every `ROWS[name]`-th row), must agree column by
column within `ROW_RTOL` times the column's largest |value|.  Other SIMD
kernels move the rows by about 1e-13 of that scale.  A paired run's
`times`, `dual_distance` and `fitted_C` (`CDEP_ROWS`, stored as
`tests/golden/<name>.json`) are compared the same way, each within
`ROW_RTOL` times its largest |value|.  These rows predate the
coefficient-space mu and pass unchanged.

To re-record (only at a commit whose outputs are the reference):

    PYTHONPATH=src python tests/test_golden.py          # print the hashes
    PYTHONPATH=src python tests/test_golden.py rows     # rewrite tests/golden/
"""

import configparser
import csv
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from sixch.cli import main

ROOT = Path(__file__).resolve().parent.parent
ROWS_DIR = Path(__file__).resolve().parent / "golden"
FILES = {"run": ("ledger.csv", "summary.json", "final_state.f64"),
         "cdep": ("cdep.json",)}

# name -> (base config, overrides); a name starting with cdep runs `sixch cdep`
RUNS = {
    "bench1d_500": ("configs/benchmark1d.ini",
                    {"run": {"max_steps": "500", "snapshot_every": "0"}}),
    "neumann3d_16": ("configs/benchmark1d.ini",
                     {"grid": {"dim": "3", "counts": "16 16 16",
                               "lengths": "12.566370614359172 " * 3},
                      "initial": {"cutoff": "4"},
                      "run": {"max_steps": "20", "snapshot_every": "0"}}),
    "periodic2d_trunc": ("configs/benchmark1d.ini",
                         {"grid": {"dim": "2", "counts": "32 24",
                                   "lengths": "12.566370614359172 9.42477796076938",
                                   "bc": "periodic"},
                          "potential": {"truncation": "20"},
                          "initial": {"cutoff": "5"},
                          "run": {"max_steps": "60", "snapshot_every": "0"}}),
    "newton1d_20": ("configs/benchmark1d.ini",
                    {"solver": {"scheme": "newton"},
                     "run": {"max_steps": "20", "snapshot_every": "0"}}),
    # fast step growth: energy-rise rejections (25 and 9 of them)
    "imex1d_rejecting": ("configs/benchmark1d.ini",
                         {"solver": {"growth_factor": "1.5", "dt_max": "1.0"},
                          "run": {"max_steps": "300", "snapshot_every": "0"}}),
    "newton1d_rejecting": ("configs/benchmark1d.ini",
                           {"solver": {"scheme": "newton", "growth_factor": "1.5"},
                            "run": {"max_steps": "30", "snapshot_every": "0"}}),
    "cdep_shipped": ("configs/cdep.ini", {}),
    # adaptive Newton pair: 102 accepted steps, 25 paired rejections
    "cdep_newton_rejecting": ("configs/cdep.ini",
                              {"solver": {"scheme": "newton", "dt0": "1e-4",
                                          "dt_min": "1e-9", "dt_max": "5e-2",
                                          "growth_factor": "1.5"},
                               "cdep": {"t_end": "0.05", "amplitude": "1e-3"}}),
}

# name -> stride of the ledger rows kept in tests/golden/<name>.csv
ROWS = {"bench1d_500": 5, "newton1d_20": 1}
# paired runs whose cdep.json series are kept in tests/golden/<name>.json
CDEP_ROWS = ("cdep_shipped",)
CDEP_KEYS = ("times", "dual_distance", "fitted_C")
ROW_RTOL = 1e-10

RECORDED_ON = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64", "avx512_skx": True}

GOLDEN = {
    "bench1d_500": {
        "ledger.csv": "5b717cf2c52a2d807b26ab28c98fddc08e2aec4dcdf4f914e81f1be6e11c60fc",
        "summary.json": "cfad86f27177633fa87fe1f8a40a703146c013441617556f3c1b2d6e4af13e90",
        "final_state.f64": "5a392d68ba4fcaed6b7793fc67a2b9a2c6a96e2b1b8ed9f68857169907069b70",
    },
    "neumann3d_16": {
        "ledger.csv": "97bbec7590855c3ca9930af512a7cbbc16615830f84328486798204af0b05200",
        "summary.json": "99623e1e63ce0f3a376fc56f14525b9028e61412c1a7a6eae9ab89b0fd23fcdc",
        "final_state.f64": "6951a642099bfe71f02c477738d178384f276474deff30731a43a82e664cba53",
    },
    "newton1d_20": {
        "ledger.csv": "69f2f4f679bfec9d61d840a97a1ae4d4b7f9c2219cec270e413252c130aee4bd",
        "summary.json": "475edd40cd40ff022cd9281a661e5d82d33ec9e81fced7a7dd6b868628197700",
        "final_state.f64": "35b78823734347b8f76fda4c000d8f2edc142496685c9d2f9f2216471a3a9579",
    },
    "imex1d_rejecting": {
        "ledger.csv": "78d35a95e342e0ac0790fd41e2f250ae42a3433da3a8f41781858965df06aca2",
        "summary.json": "a32936eac63fc369ca680f48de6a3f8f5311a06d9443edb6d18adc1e0487f0a6",
        "final_state.f64": "dbf25501bea19dea9f89632125eb25222aef4e95678ac58a24a282aeee7c6b4a",
    },
    "newton1d_rejecting": {
        "ledger.csv": "e6cf484bb63e1e36925b843e13fbcabd890eb50f389f27af6c944a4b02437b21",
        "summary.json": "617142711334c31eb1c9159102d11ba08cfdebc61d39d7d46c5d3830b4af5548",
        "final_state.f64": "26d3c51a115859f2d35e5c7c349162cd5269575b0b77fe8438f23df7dab5cc22",
    },
    "periodic2d_trunc": {
        "ledger.csv": "9c45ed96d3b383c74ebafc63dc915b84d4ef9dd1704a73e8e2359b4d3e257289",
        "summary.json": "e280b259d108bd6aa1d07779369a88cf4f17a3a731da2b5f00c0679010ed2612",
        "final_state.f64": "9a6eea9341871154b068c0df1dae843e01de5e7756a64b40b9cfc5a0114e763c",
    },
    "cdep_shipped": {
        "cdep.json": "749c141ba496088b4a914a8110f0a04fcf9b5ab379d8ea6efcab7b13f40b3c2e",
    },
    "cdep_newton_rejecting": {
        "cdep.json": "1cc6c47d27c50998593d68676e613c4726aa5362c41ecae80291bca004810426",
    },
}


def _environment() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # pragma: no cover - numpy < 2
        features = {}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "avx512_skx": bool(features.get("AVX512_SKX"))}


def _command(name: str) -> str:
    return "cdep" if name.startswith("cdep") else "run"


def run_outputs(name: str, workdir: Path) -> Path:
    """Run `name` in workdir; return its output directory."""
    base, overrides = RUNS[name]
    cp = configparser.ConfigParser()
    cp.read(ROOT / base)
    for section, values in overrides.items():
        cp[section].update(values)
    config = workdir / f"{name}.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    out = workdir / name
    assert main([_command(name), "--config", str(config), "--out", str(out)]) == 0
    return out


def run_hashes(name: str, workdir: Path) -> dict:
    out = run_outputs(name, workdir)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES[_command(name)]}


def read_rows(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_hashes(name, tmp_path):
    env = _environment()
    if env != RECORDED_ON:
        pytest.skip(f"golden hashes were recorded on {RECORDED_ON}, this is {env}")
    assert run_hashes(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ROWS))
def test_ledger_rows_match_golden(name, tmp_path):
    header, golden = read_rows(ROWS_DIR / f"{name}.csv")
    got_header, got = read_rows(run_outputs(name, tmp_path) / "ledger.csv")
    assert got_header == header
    got = got[::ROWS[name]]
    assert got.shape == golden.shape
    scale = np.max(np.abs(golden), axis=0)
    worst = np.max(np.abs(got - golden), axis=0)
    bad = {col: (float(w), float(s)) for col, w, s in zip(header, worst, scale)
           if w > ROW_RTOL * s}
    assert not bad, f"columns off by more than {ROW_RTOL:g} x max|value|: {bad}"


@pytest.mark.parametrize("name", CDEP_ROWS)
def test_cdep_series_match_golden(name, tmp_path):
    golden = json.loads((ROWS_DIR / f"{name}.json").read_text())
    got = json.loads((run_outputs(name, tmp_path) / "cdep.json").read_text())
    for key in CDEP_KEYS:
        want, have = np.atleast_1d(golden[key]), np.atleast_1d(got[key])
        assert have.shape == want.shape, key
        worst = float(np.max(np.abs(have - want)))
        scale = float(np.max(np.abs(want)))
        assert worst <= ROW_RTOL * scale, f"{key} off by {worst:g} (scale {scale:g})"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["rows"]:
            ROWS_DIR.mkdir(exist_ok=True)
            for run, stride in sorted(ROWS.items()):
                lines = (run_outputs(run, Path(tmp)) / "ledger.csv").read_text().splitlines()
                kept = [lines[0]] + lines[1:][::stride]
                (ROWS_DIR / f"{run}.csv").write_text("\n".join(kept) + "\n")
            for run in CDEP_ROWS:
                got = json.loads((run_outputs(run, Path(tmp)) / "cdep.json").read_text())
                series = {key: got[key] for key in CDEP_KEYS}
                (ROWS_DIR / f"{run}.json").write_text(json.dumps(series, indent=1) + "\n")
        else:
            print(f"RECORDED_ON = {_environment()!r}", file=sys.stderr)
            for run in sorted(RUNS):
                print(f"    {run!r}: {run_hashes(run, Path(tmp))!r},")
