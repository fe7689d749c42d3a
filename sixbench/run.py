"""The sixch benchmark: one workload per run, through the `sixch` CLI.

Usage (from the root of a checkout):

    python3 sixbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run first sets up SETUP_PROBES fresh interpreters that only import
`sixch.cli` and parse the workload's config, then repeats one operation,
a `sixch` subcommand in a fresh single-threaded process, until another
would end more than half an operation after S seconds (at least one).  Every operation gets the same
inputs, built from the seed.  After each operation its outputs are
checked (see checks.py); an operation fails on a non-zero exit or a
failed check.  With --trace 0 the run reports the end-to-end metrics as
medians over operations; with --trace 1 each operation runs under the
tracer and the run reports the per-layer metrics.  The last line of
standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".sixbench-out"
TRACE_DIR = ROOT / ".sixbench-trace"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s whatever --seconds says
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str  # sixch subcommand
    config: str  # relative to the checkout root
    trajectories: int  # trajectories stepped in lockstep per time step
    tiny: dict = field(default_factory=dict)  # config overrides for the self-test


WORKLOADS = {
    "bench1d": Workload("run", "configs/benchmark1d.ini", 1,
                        {"grid": {"counts": "64"},
                         "run": {"max_steps": "40", "snapshot_every": "10"}}),
    "spinodal3d": Workload("run", "sixbench/configs/spinodal3d.ini", 1,
                           {"grid": {"counts": "8 8 8"}, "initial": {"cutoff": "2"},
                            "run": {"t_end": "0.005", "snapshot_every": "4"}}),
    "cdep": Workload("cdep", "sixbench/configs/cdep.ini", 2,
                     {"grid": {"counts": "16"}, "cdep": {"t_end": "0.1"}}),
    "newton1d": Workload("run", "sixbench/configs/newton1d.ini", 1,
                         {"grid": {"counts": "64"}, "run": {"max_steps": "5"}}),
}

EVALUATORS = ("potential.eval_beta", "potential.eval_F", "potential.eval_f",
              "potential.eval_a", "potential.eval_g")
FFT_SPANS = ("scipy.fft.dct", "scipy.fft.dst", "scipy.fft.fftn", "scipy.fft.ifftn")


@dataclass
class Op:
    """One child process: its clock marks, resource usage and outcome."""

    spawned: float
    rc: int
    cpu_s: float
    rss_mib: float
    result: dict
    failures: list


# ---------------------------------------------------------------------------
# processes


def _spawn(argv: list[str], workdir: Path, trace: bool, setup_only: bool,
           timeout: float) -> Op:
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "child.json"
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           "1" if trace else "0", "1" if setup_only else "0", "--", *argv]
    with open(workdir / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            status, usage = _wait(proc, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    rc = os.waitstatus_to_exitcode(status)
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    failures = [] if rc == 0 else [f"exit code {rc}, see {workdir / 'child.log'}"]
    if result and Path(result["sixch_file"]).resolve() != (ROOT / "src/sixch/cli.py").resolve():
        failures.append(f"imported sixch from {result['sixch_file']}, not from src/")
    return Op(spawned, rc, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
              result, failures)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its resource usage; kill it after `timeout` s."""
    end = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > end:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


# ---------------------------------------------------------------------------
# workload inputs


def prepare_config(name: str, workdir: Path, tiny: bool) -> Path:
    """The workload's config file; the self-test shrinks it via `tiny`."""
    wl = WORKLOADS[name]
    path = ROOT / wl.config
    if not tiny:
        return path
    cp = configparser.ConfigParser()
    cp.read(path)
    for section, values in wl.tiny.items():
        cp[section].update(values)
    small = workdir / f"{name}-tiny.ini"
    with open(small, "w") as fh:
        cp.write(fh)
    return small


# ---------------------------------------------------------------------------
# metrics


def _end_to_end(setups: list[float], ops: list[Op]) -> dict:
    done = [op for op in ops if "solve_end" in op.result.get("marks", {})]
    marks = [op.result["marks"] for op in done]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(m["solve_end"] - m["solve_start"] for m in marks),
        "cpu_s": statistics.median(op.cpu_s for op in done),
        "peak_rss_mib": statistics.median(op.rss_mib for op in done),
    }


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


def _per_layer(op: Op, outdir: Path, wl: Workload) -> dict:
    trace = op.result["trace"]
    fns = trace["functions"]
    counts = trace["counts"]
    marks = op.result["marks"]

    def calls(*names):
        return sum(fns[n]["calls"] if n in fns else counts.get(n, 0) for n in names)

    def total(*names):
        return sum(fns[n]["total_s"] for n in names if n in fns)

    def self_time(layer):
        return sum(f["self_s"] for f in fns.values() if f["layer"] == layer)

    if wl.command == "cdep":
        times = json.loads((outdir / "cdep.json").read_text())["times"]
        accepted, sim_time = len(times) - 1, times[-1]
    else:
        summary = json.loads((outdir / "summary.json").read_text())
        accepted, sim_time = summary["steps"], summary["final_time"]
    attempted = calls("stepper.step_imex", "stepper.step_implicit") / wl.trajectories
    newton_attempts = calls("stepper.step_implicit")
    newton_iters = calls("scipy.sparse.linalg.lgmres")
    snapshot_files = [*outdir.glob("snapshots/*"), *outdir.glob("final_state.*")]
    return {
        "grid.fft_calls_per_step": calls(*FFT_SPANS) / accepted,
        "grid.fft_dispatch_s": self_time("fft"),
        "grid.fft_compute_s": self_time("pocketfft"),
        "grid.transform_calls_per_step":
            calls("grid.transform_forward", "grid.transform_backward") / accepted,
        "grid.gradient_calls_per_step": calls("grid.gradient_axis") / accepted,
        "grid.field_constructions_per_step": calls("grid.ScalarField.__init__") / accepted,
        "grid.self_s": self_time("grid"),
        "potential.eval_calls_per_step": calls(*EVALUATORS) / accepted,
        "potential.domain_checks_per_step":
            calls("potential._check_open", "potential._check_closed") / accepted,
        "potential.self_s": self_time("potential"),
        "model.mu_calls_per_step": calls("model.mu") / accepted,
        "model.energy_calls_per_step": calls("model.energy") / accepted,
        "model.mu_s": total("model.mu"),
        "model.energy_s": total("model.energy"),
        "model.apriori_s": total("model.apriori_diagnostics"),
        "stepper.accepted_steps": accepted,
        "stepper.attempted_steps": attempted,
        "stepper.accept_ratio": accepted / attempted,
        "stepper.sim_time": sim_time,
        "stepper.ms_per_accepted_step":
            1000.0 * total("stepper.advance", "diagnostics.cdep_experiment") / accepted,
        "stepper.step_self_s": self_time("stepper"),
        "stepper.newton_iters_per_attempt":
            newton_iters / newton_attempts if newton_attempts else 0.0,
        "stepper.krylov_matvecs_per_newton_iter":
            trace["krylov_matvecs"] / newton_iters if newton_iters else 0.0,
        "stepper.lgmres_s": total("scipy.sparse.linalg.lgmres"),
        "diagnostics.record_s": total("diagnostics.RunLedger.record"),
        "diagnostics.write_csv_s": total("diagnostics.RunLedger.write_csv"),
        "diagnostics.ledger_bytes": _file_bytes([outdir / "ledger.csv"]),
        "snapshots.bytes_written": _file_bytes(snapshot_files),
        "snapshots.write_s": total("snapshots.write_snapshot"),
        "cli.import_s": marks["imported"] - marks["start"],
        "cli.parse_config_s": marks["ready"] - marks["imported"],
        "cli.provenance_s": total("cli._write_provenance"),
        "initdata.generate_s": total("initdata.generate"),
    }


# ---------------------------------------------------------------------------
# a run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload for about `seconds`; return the result object."""
    wl = WORKLOADS[name]
    checker = checks.check_cdep if wl.command == "cdep" else checks.check_run
    start = time.monotonic()
    deadline = start + seconds
    outroot = OUT_DIR / name
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    config = prepare_config(name, outroot, tiny)
    argv = [wl.command, "--config", str(config), "--seed", str(seed)]

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    setups = []
    for i in range(SETUP_PROBES):
        probe = _spawn(argv, outroot / f"setup{i}", False, True, remaining())
        if probe.failures:
            raise RuntimeError(f"set-up failed: {probe.failures}")
        setups.append(probe.result["marks"]["ready"] - probe.spawned)

    ops: list[Op] = []
    layers: list[dict] = []
    longest = 0.0
    while True:
        opdir = outroot / f"op{len(ops)}"
        began = time.monotonic()
        op = _spawn([*argv, "--out", str(opdir)], opdir, trace, False, remaining())
        if op.rc == 0:
            try:
                op.failures += checker(opdir, config)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                op.failures.append(f"unreadable output: {exc!r}")
        if "ready" in op.result.get("marks", {}):
            setups.append(op.result["marks"]["ready"] - op.spawned)
        if trace and not op.failures:
            layers.append(_per_layer(op, opdir, wl))
            TRACE_DIR.mkdir(exist_ok=True)
            (TRACE_DIR / f"{name}-seed{seed}.json").write_text(json.dumps(
                {"workload": name, "seed": seed, "per_layer": layers[-1],
                 "functions": op.result["trace"]}, indent=1, sort_keys=True))
        ops.append(op)
        marks = op.result.get("marks", {})
        if "solve_end" in marks:
            print(f"op{len(ops) - 1}: solve_s {marks['solve_end'] - marks['solve_start']:.4f}"
                  f"  cpu_s {op.cpu_s:.4f}  peak_rss_mib {op.rss_mib:.2f}")
        for failure in op.failures:
            print(f"op{len(ops) - 1} FAILED: {failure}", file=sys.stderr)
        if len(ops) > 1:
            shutil.rmtree(outroot / f"op{len(ops) - 2}", ignore_errors=True)
        longest = max(longest, time.monotonic() - began)
        # Start another operation only if it should end within half an
        # operation of the deadline, and surely before the hard limit.
        if time.monotonic() + 0.5 * longest > deadline or remaining() < 1.5 * longest:
            break

    failed = sum(1 for op in ops if op.failures)
    metrics = _end_to_end(setups, ops)
    traced_solve = metrics.pop("solve_s") if trace else None
    if trace:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    return {
        "correct": all(not op.failures for op in ops if op.rc == 0),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "traced_solve_s": traced_solve,
    }


def main() -> int:
    # Turn SIGTERM into SystemExit so that a running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (ROOT / "src/sixch/cli.py", spec_path, ROOT / WORKLOADS[args.workload].config):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from the root of a sixch checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = result.pop("metrics")
    traced_solve = result.pop("traced_solve_s")
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(f"workload {args.workload}  seed {args.seed}  operations {result['attempted']}"
          f"  failed {result['failed']}  correct {result['correct']}")
    for m in declared:
        print(f"  {m['name']:<42} {metrics[m['name']]:>16.6g} {m['unit']}")
    if traced_solve is not None:
        print(f"  {'traced solve_s (for the tracing overhead)':<42} {traced_solve:>16.6g} s")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
