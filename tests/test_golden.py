"""Golden outputs of short `sixch run` and `sixch cdep` runs, in two tiers.

A refactor described as "same behaviour" must leave `ledger.csv`,
`summary.json` and `final_state.f64` of a run, and `cdep.json` of a
paired run, byte-identical.  The run hashes were recorded before the
evaluated-State refactor of the stepper, the model and the ledger; the
cdep hashes before the paired run moved onto the shared step
controller; all on the environment named in `RECORDED_ON`.
Bit-identity is a property of one numpy/scipy build on one CPU feature
set (numpy dispatches log1p/exp to different SIMD kernels), so elsewhere
the hash test is skipped rather than compared.

The portable tier runs everywhere: the ledger rows of two runs, stored
in `tests/golden/` (every `ROWS[name]`-th row), must agree column by
column within `ROW_RTOL` times the column's largest |value|.  Other SIMD
kernels move the rows by about 1e-13 of that scale.  A paired run's
`times`, `dual_distance` and `fitted_C` (`CDEP_ROWS`, stored as
`tests/golden/<name>.json`) are compared the same way, each within
`ROW_RTOL` times its largest |value|.

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
    # fast step growth: energy-rise rejections (25 and 7 of them)
    "imex1d_rejecting": ("configs/benchmark1d.ini",
                         {"solver": {"growth_factor": "1.5", "dt_max": "1.0"},
                          "run": {"max_steps": "300", "snapshot_every": "0"}}),
    "newton1d_rejecting": ("configs/benchmark1d.ini",
                           {"solver": {"scheme": "newton", "growth_factor": "1.5"},
                            "run": {"max_steps": "30", "snapshot_every": "0"}}),
    "cdep_shipped": ("configs/cdep.ini", {}),
    # adaptive Newton pair: 97 accepted steps, 24 paired rejections
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

RECORDED_ON = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64", "avx512f": True}

GOLDEN = {
    "bench1d_500": {
        "ledger.csv": "ce6a69d797981700543d649dd99debbbd9663cf9182fbec42b63e903fcddee3b",
        "summary.json": "dab69ac69e37687ba9a15b0af31aca3344f38e74d60db9afa443193d1a0aed2b",
        "final_state.f64": "fc007d114a5383fd92d058aac26ddf172e4af534de3a8b256fe8d87e8504c0e3",
    },
    "neumann3d_16": {
        "ledger.csv": "9b422e1f19fa233f0fc99fb14f0897cdd769eb2a4d650c960f08f316068306ae",
        "summary.json": "18529e34c4b3b4a06d0ecb40f59e4270b45bdfdf96d8cb37ab491eb1cae71b08",
        "final_state.f64": "27cbc69a6e127f7948f5fe4c88f7e0b323479f2621ccb1b86a89323910459d57",
    },
    "newton1d_20": {
        "ledger.csv": "120000deab4ad1516478972d550a809c3243dc62251f8f1a068cba5c8f42375e",
        "summary.json": "d3b6356725ba8fb180dc1b4b77ec99f5d589699a6b1becb5a79dc23263cf18ef",
        "final_state.f64": "6e4381da8501b4cfdb69a7bb58ba80f4dfa8c8a2945b30b0a8b0c18fd65bd339",
    },
    "imex1d_rejecting": {
        "ledger.csv": "c4b2bfc0472ff449b787f1d9c4ac417883b9b151056a5f022c04072ac2766b59",
        "summary.json": "73ae2ce4b232713fdc1add8830339f3066ff091cfd1fb4b34d3be3b469a4ec6a",
        "final_state.f64": "d963adf5be35d2b444fc9d978be742097073cf38b19234a1ad9616b9df495071",
    },
    "newton1d_rejecting": {
        "ledger.csv": "0969a55f261297e5bb344282fb4b8756116a9f56cc8a8db220c04317311561ff",
        "summary.json": "6424033e70ca63d7df51aa301c0b640b8c0e99e84adf86e862ffc3d634bae3b0",
        "final_state.f64": "a2d36f0c2c772f01ef368222a240895789fe9eaa76e6d811dce3a5b46f2203a2",
    },
    "periodic2d_trunc": {
        "ledger.csv": "df8d959cb70884a321cc1b77157d5764d02908967cf4e67d677abced2036ddb4",
        "summary.json": "f1e99ec162f6db8b4ab7f7d76e67b2d29c8af1a9813ca3758779bf5cd095b42a",
        "final_state.f64": "2cac2599f24834a88ec9808151d2014c768fa9244632d4dad9c93c81bfaab93f",
    },
    "cdep_shipped": {
        "cdep.json": "3362d36c2d33065765d36a922a67cff408e9b1f8249c98bf9ab61b9c3a5ea7ec",
    },
    "cdep_newton_rejecting": {
        "cdep.json": "2014bfc1a8f799d3f4e592cc3d9382bbd9c82dc3d9015f1eb38489791f9197b6",
    },
}


def _environment() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # pragma: no cover - numpy < 2
        features = {}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "avx512f": bool(features.get("AVX512F"))}


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
