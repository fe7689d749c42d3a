"""Golden outputs of short `sixch run`, `sixch cdep` and `sixch dispersion`
runs, in two tiers.

A refactor described as "same behaviour" must leave `ledger.csv`,
`summary.json`, `final_state.f64` and the cadence snapshots of a run, `cdep.json` of a paired
run and `dispersion.csv` of a dispersion measurement byte-identical.
The hash tier checks that: each run's files must have the sha256 in
`GOLDEN`.  Bit-identity is a property of one numpy/scipy build on one
CPU feature set (numpy dispatches log1p/exp to its AVX512_SKX kernels
where the CPU has them and `NPY_DISABLE_CPU_FEATURES` leaves them on;
AVX512F alone does not decide it), so the hashes are compared only on
the environment named in `RECORDED_ON` and skipped elsewhere.

The portable tier runs everywhere: the ledger rows of two runs, stored
in `tests/golden/` (every `ROWS[name]`-th row), must agree column by
column within `ROW_RTOL` times the column's largest |value|.  Other SIMD
kernels move the rows by about 1e-13 of that scale.  A paired run's
`times`, `dual_distance` and `fitted_C` (`CDEP_ROWS`, stored as
`tests/golden/<name>.json`) are compared the same way, each within
`ROW_RTOL` times its largest |value|.

Re-record the hashes only for a change that is meant to move the outputs
(say, a different solve), at a commit whose outputs are the reference,
and say in the change log which runs moved and by how much.  Re-record
the rows only if a change moves them beyond `ROW_RTOL`:

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
         "cdep": ("cdep.json",), "dispersion": ("dispersion.csv",)}

# name -> (base config, overrides); a name whose first word is cdep or
# dispersion runs that subcommand, any other `sixch run`
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
    # periodic2d_trunc stepped by Newton: complex arithmetic at a truncation level
    "newton2d_periodic_trunc": ("configs/benchmark1d.ini",
                                {"grid": {"dim": "2", "counts": "32 24",
                                          "lengths": "12.566370614359172 9.42477796076938",
                                          "bc": "periodic"},
                                 "potential": {"truncation": "20"},
                                 "initial": {"cutoff": "5"},
                                 "solver": {"scheme": "newton"},
                                 "run": {"max_steps": "20", "snapshot_every": "0"}}),
    "newton1d_20": ("configs/benchmark1d.ini",
                    {"solver": {"scheme": "newton"},
                     "run": {"max_steps": "20", "snapshot_every": "0"}}),
    # fast step growth: rejections (25 energy rises; 10 Newton non-convergences)
    "imex1d_rejecting": ("configs/benchmark1d.ini",
                         {"solver": {"growth_factor": "1.5", "dt_max": "1.0"},
                          "run": {"max_steps": "300", "snapshot_every": "0"}}),
    "newton1d_rejecting": ("configs/benchmark1d.ini",
                           {"solver": {"scheme": "newton", "growth_factor": "1.5"},
                            "run": {"max_steps": "30", "snapshot_every": "0"}}),
    # cadence snapshots: rows 0, 20, 40 and 60, the start's among them
    "bench1d_snapshots": ("configs/benchmark1d.ini",
                          {"run": {"max_steps": "60", "snapshot_every": "20"}}),
    "cdep_shipped": ("configs/cdep.ini", {}),
    # adaptive Newton pair: 91 accepted steps, 26 paired rejections
    "cdep_newton_rejecting": ("configs/cdep.ini",
                              {"solver": {"scheme": "newton", "dt0": "1e-4",
                                          "dt_min": "1e-9", "dt_max": "5e-2",
                                          "growth_factor": "1.5"},
                               "cdep": {"t_end": "0.05", "amplitude": "1e-3"}}),
    # fixed-step Newton pair: 100 accepted steps, no rejection, portable rows
    "cdep_newton_fixed": ("configs/cdep.ini",
                          {"solver": {"scheme": "newton", "dt0": "1e-4",
                                      "dt_min": "1e-4", "dt_max": "1e-4"},
                           "cdep": {"t_end": "0.01", "amplitude": "1e-3"}}),
    "dispersion_shipped": ("configs/dispersion.ini", {}),
}

# name -> stride of the ledger rows kept in tests/golden/<name>.csv
ROWS = {"bench1d_500": 5, "newton1d_20": 1, "newton2d_periodic_trunc": 1}
# paired runs whose cdep.json series are kept in tests/golden/<name>.json
CDEP_ROWS = ("cdep_newton_fixed", "cdep_shipped")
CDEP_KEYS = ("times", "dual_distance", "fitted_C")
ROW_RTOL = 1e-10

RECORDED_ON = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64", "avx512_skx": True}

GOLDEN = {
    "bench1d_500": {
        "ledger.csv": "78923ff8714e168438b23a29cd56301814422d00507cdb327099c938a4cf0f07",
        "summary.json": "75d1deb2a0b5fd3950668dbe2c67394b75d24d01adc7bf5c9ee45735dcfea12d",
        "final_state.f64": "0c56fea489a0e52c30f12f87b3db6526f4ee957f378da3e853d028539aeaed79",
    },
    "neumann3d_16": {
        "ledger.csv": "3d580824aaa08dfeeba94c5be76c201cf33f8dafccfceb476ae48b2eb15338fc",
        "summary.json": "1a8527099f4b1eefb0a87a504dd47523a31a47f91d37d922052364406fea28e9",
        "final_state.f64": "aed02ed4e3a305bb725f7a24cc274198acdcf809f03991d511114ad4546fee79",
    },
    "newton1d_20": {
        "ledger.csv": "fce7776138fd3341fa034d13db1ed605587bcdd4f5f14afd39b39c6d6a4a6c55",
        "summary.json": "c7f198cf1e2874fc84254cc7bda993791523a2c9968fadabb3a503499840c58b",
        "final_state.f64": "635e52b4a0a2240ce3177577cefd100622f3b0a493352420ecab1068bf63053f",
    },
    "imex1d_rejecting": {
        "ledger.csv": "0656b450a7e7dd481ff484f096cfa3eb36a22f9ab3941cd820da3db7e9f2eaca",
        "summary.json": "482b684be8c6ae6cf250c8fa28087f8e1e8607aee2caca588217b7be7a7419b0",
        "final_state.f64": "7fe9c51b343ed0141fddd272cf996ab887de6b0fa723618b7f3ab3426378db72",
    },
    "newton1d_rejecting": {
        "ledger.csv": "c753fa7169f58883cac26ffea18993f991999890071c2e0fd1c1befe94248691",
        "summary.json": "414debe695f0ba97465fa79678d994872ba5339bfaa2584c004f150d492c5dd5",
        "final_state.f64": "421ae6d5552208a1c27a92b544c45a4082b4352f4de146f3a4a24227545b0a21",
    },
    "periodic2d_trunc": {
        "ledger.csv": "33f6d916c3e49f8b6a025b7e80f708401b071f2994028b3877def94b8e20f0f2",
        "summary.json": "3f938d4ff5743cc0b6d634f0f31199a894d067ea1ec05a28ecbd2afe4993bf08",
        "final_state.f64": "3f8cc0e8597ae8a94dbe0a99a02f4da08f06d6fd5cbf28e2b89b18eba5d75721",
    },
    "newton2d_periodic_trunc": {
        "ledger.csv": "629b95d9b29df9c6f37a519e544e4a273420a8236b6c0ce4a5d976e94b1f8b25",
        "summary.json": "570cfa45df688d7869620c575862f28b3d3620288eb0db8dd4fd1acf4b58bf9e",
        "final_state.f64": "c834a14220bfa831de5b433f9c15d6bd72206776b624de22a29de9506289e704",
    },
    "bench1d_snapshots": {
        "ledger.csv": "8a47b0eab76b87e6577f6dd28ee4a94c1da72015720881295cf8c1ca042680a3",
        "summary.json": "0fd0fc05ff115ae7acf7c7b530d14ca8858bda56c2e26d0927fbc2aa1a229223",
        "final_state.f64": "2a859ac3f4a7e674dcb02f29b8ec2714b61a72952b5a221aafbf83199480f07e",
        "snapshots/state_000000.f64":
            "a9a8c47889fbdac074d091531f83b0547bce708ea660c7d49064103127800fd6",
        "snapshots/state_000000.json":
            "0ad3915a79bd9f2d8abbd113ed9550ec18fde84332bd2f480353b79e5107e416",
        "snapshots/state_000020.f64":
            "8c1a31020f3eac89861228ad2972799f8e417320beca479f87f72655356b6cf9",
        "snapshots/state_000020.json":
            "ec721871dcf68f784490638dc12fcd1efc29535840c5b3254bc01131c9759723",
        "snapshots/state_000040.f64":
            "b490084f6f0c151cb4e65cc32aa3c5da70d5621aae9a442db6a4a811d8caa2e1",
        "snapshots/state_000040.json":
            "70ffbfff29ad996ef1034cbf8eb4de83eb3d819e9c7b5e1781dc429f7cee4c0f",
        "snapshots/state_000060.f64":
            "2a859ac3f4a7e674dcb02f29b8ec2714b61a72952b5a221aafbf83199480f07e",
        "snapshots/state_000060.json":
            "4579974e336b59a1680ad5b69b8fee338b351315e085f4b4c1b2af5c6cbbbaf6",
    },
    "cdep_shipped": {
        "cdep.json": "c2a7385fb22d10e36b0f200d2a1c8d0229e74fd9bb4c2d048b698fe9df813172",
    },
    "cdep_newton_fixed": {
        "cdep.json": "cce57879b49f58da74d07cfe80994c27257dd5f8d4db8fec2dae4b06e6d7ac02",
    },
    "cdep_newton_rejecting": {
        "cdep.json": "2e8ba8db42e480de73a11c86c1c5240317203297d89a32e80d6f78b54c2a4d1a",
    },
    "dispersion_shipped": {
        "dispersion.csv": "523123202acbfc9aa8d820cd72520c5cfb7e37d9d39ea743f64752ae407228c7",
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
    command = name.split("_")[0]
    return command if command in FILES else "run"


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
    """The sha256 of each of the command's files and of every cadence snapshot."""
    out = run_outputs(name, workdir)
    snaps = sorted(str(p.relative_to(out)) for p in out.glob("snapshots/*"))
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in [*FILES[_command(name)], *snaps]}


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


@pytest.mark.parametrize("name, zero", [("cdep_newton_rejecting", False),
                                        ("cdep_shipped", True)])
def test_cdep_reports_its_rejections(name, zero, tmp_path, monkeypatch, capsys):
    # the summary line counts the attempts that did not become accepted steps
    from sixch import stepper

    scheme = RUNS[name][1].get("solver", {}).get("scheme", "imex")
    attempts = []
    step = stepper._STEPPERS[scheme]

    def counted(*args, **kwargs):
        attempts.append(None)
        return step(*args, **kwargs)

    monkeypatch.setitem(stepper._STEPPERS, scheme, counted)
    out = run_outputs(name, tmp_path)
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    rejections = int(summary.rsplit("rejections = ", 1)[1])
    accepted = len(json.loads((out / "cdep.json").read_text())["times"]) - 1
    assert rejections == len(attempts) - accepted
    assert (rejections == 0) is zero


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
