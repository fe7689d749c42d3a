"""Command-line entry point.

Subcommands: run, verify, dispersion, cdep, sweep, init.  Configuration is
an INI-style file with sections [grid], [potential], [initial], [solver],
[run] and optional experiment sections; unknown sections or keys are
rejected so typos in parameter names fail loudly.  Exit codes: 0 ok,
1 config error, 2 solver failure, 3 verify failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import grid as gr
from . import initdata, model, potential, snapshots, stepper
from .errors import ConfigError, EngineError

# [solver]'s keys: SolverConfig's fields and defaults; a key left out keeps its default
_SOLVER_KEYS = {f.name: f.default for f in fields(stepper.SolverConfig)}

_SECTIONS = {
    "grid": {"dim", "counts", "lengths", "bc"},
    "potential": {"lambda", "eta", "truncation"},
    "initial": {"kind", "mean", "amplitude", "seed", "mode", "cutoff", "position", "width"},
    "solver": set(_SOLVER_KEYS),
    "run": {"t_end", "max_steps", "snapshot_every"},
    "dispersion": {"k_indices", "length", "samples", "amplitude", "steps", "pairs"},
    "cdep": {"t_end", "mode", "amplitude"},
    "sweep": {"lambdas", "etas", "truncations", "t_end", "max_steps"},
}


@dataclass
class RunConfig:
    grid: gr.Grid
    potential: potential.Nonlinearity  # the params and the truncation level, if any
    initial: initdata.InitialSpec
    solver: stepper.SolverConfig
    t_end: float
    max_steps: Optional[int]
    snapshot_every: int
    extras: dict


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _solver_value(default, raw: str):
    """A [solver] value as its default's type; a None default reads empty or `auto` as None."""
    if default is None:
        return None if raw.strip() in ("", "auto") else float(raw)
    return type(default)(raw)


def parse_config(path: str | Path, seed_override: Optional[int] = None) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(str(path)):  # a str: configparser's messages quote it, a Path's repr
            raise ConfigError(f"cannot read config file {path}")
        for section in cp.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(cp[section]) - _SECTIONS[section]
            if unknown:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        g = cp["grid"]
        counts = tuple(_ints(g.get("counts", "64")))
        lengths = tuple(_floats(g.get("lengths", "1.0")))
        dim = g.getint("dim", len(counts))
        if dim != len(counts) or dim != len(lengths):
            raise ConfigError("dim must match the number of counts and lengths")
        bc = g.get("bc", "neumann").lower()
        grid = gr.Grid(lengths, counts, bc)

        pot = cp["potential"]
        params = potential.PotentialParams(pot.getfloat("lambda", 0.0),
                                           pot.getfloat("eta", 0.0))
        trunc = None
        if pot.get("truncation", "").strip():
            trunc = potential.TruncationLevel(pot.getint("truncation"))
        nl = potential.Nonlinearity(params, trunc)

        ini = cp["initial"] if cp.has_section("initial") else {}
        spec = initdata.InitialSpec(
            kind=ini.get("kind", "constant"),
            mean_m=float(ini.get("mean", 0.0)),
            amplitude=float(ini.get("amplitude", 0.0)),
            seed=seed_override if seed_override is not None else int(ini.get("seed", 0)),
            mode=int(ini.get("mode", 1)),
            cutoff=int(ini.get("cutoff", 8)),
            position=float(ini["position"]) if ini.get("position") else None,
            width=float(ini["width"]) if ini.get("width") else None,
        )
        initdata.check_realizable(spec, grid)

        sol = cp["solver"] if cp.has_section("solver") else {}
        solver = stepper.SolverConfig(**{key: _solver_value(default, sol[key])
                                         for key, default in _SOLVER_KEYS.items() if key in sol})

        run = cp["run"] if cp.has_section("run") else {}
        t_end = float(run.get("t_end", 1.0))
        max_steps = int(run["max_steps"]) if run.get("max_steps", "").strip() else None
        snapshot_every = int(run.get("snapshot_every", 0))
        if snapshot_every < 0:
            raise ConfigError("[run] snapshot_every must be >= 0 (0: no cadence snapshots)")

        extras = _experiments(cp, grid, params, t_end, max_steps)
        # the Newton guard |u| <= clamp_bound - guard_eps must admit the
        # regularized start, |u0n| <= 1 - 2/n, at the run's level and each sweep run's
        levels = [nl.level, *(run_nl.level for _, run_nl in extras["sweep"]["runs"])]
        if any(lvl is not None and solver.guard_eps >= 1.0 - lvl.clamp_bound for lvl in levels):
            raise ConfigError("guard_eps must be smaller than 1 - clamp bound")
        return RunConfig(grid, nl, spec, solver, t_end, max_steps, snapshot_every, extras)
    except (ValueError, KeyError, EngineError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(_one_line(exc)) from exc


def _one_line(exc: Exception) -> str:
    """exc's message on one line: configparser puts the file, the line number and
    the text of a line it cannot parse on lines of their own."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return (f"While reading from {exc.source!r} [line {exc.lineno:2d}]: "
                f"{exc.line!r} comes before any [section] header")
    if isinstance(exc, configparser.ParsingError):  # its errors hold each line's repr
        return f"While reading from {exc.source!r}: " + "; ".join(
            f"[line {n:2d}]: {text} is not a key = value line" for n, text in exc.errors)
    return str(exc)


def _experiments(cp, grid, params, t_end, max_steps) -> dict:
    """Parse and range-check [dispersion], [cdep] and [sweep], defaults filled in."""
    d, c, w = (cp[s] if cp.has_section(s) else {} for s in ("dispersion", "cdep", "sweep"))
    pairs = [tok.split(":") for tok in d.get("pairs", f"{params.lam}:{params.eta}").split(",")]
    pairs = [potential.PotentialParams(float(lam), float(eta)) for lam, eta in pairs]
    dispersion = {"k_indices": _ints(d.get("k_indices", "1 2 3 4 5 6 7 8")),
                  "length": float(d.get("length", 2.0 * np.pi)),
                  "n_samples": int(d.get("samples", 64)), "steps": int(d.get("steps", 60)),
                  "amplitude": float(d.get("amplitude", 1e-6))}
    if min(dispersion["k_indices"], default=0) < 1 or dispersion["steps"] < 2:
        raise ConfigError("[dispersion] needs k_indices >= 1 (k = 0 is neutral) and steps >= 2")
    if not 0.0 < dispersion["amplitude"] < 1.0:  # NaN too
        raise ConfigError("[dispersion] amplitude must lie in (0, 1)")
    gr.Grid((dispersion["length"],), (dispersion["n_samples"],), gr.PERIODIC)
    # a neutral mode is an error if named, and left out of the default modes
    # (mode 1 is neutral at the run's own lambda:eta = 3:1)
    rated = [j for j in dispersion["k_indices"] if _has_rate(j, dispersion["length"], pairs)]
    if not rated or ("k_indices" in d and rated != dispersion["k_indices"]):
        raise ConfigError(f"[dispersion] modes {sorted({*dispersion['k_indices']} - {*rated})}"
                          " have no finite, nonzero growth rate at some lambda:eta pair")
    dispersion["k_indices"] = rated
    cdep = {"t_end": float(c.get("t_end", t_end)),
            "bump": initdata.InitialSpec(kind="mode", mean_m=0.0, mode=int(c.get("mode", 1)),
                                         amplitude=float(c.get("amplitude", 1e-6)))}
    initdata.check_realizable(cdep["bump"], grid)
    sweep = {"t_end": float(w.get("t_end", t_end)),
             "max_steps": int(w["max_steps"]) if w.get("max_steps", "").strip() else max_steps,
             "runs": [(f"lam{lam:g}_eta{eta:g}_n{n}",
                       potential.Nonlinearity(potential.PotentialParams(lam, eta),
                                              potential.TruncationLevel(n) if n else None))
                      for lam in _floats(w.get("lambdas", str(params.lam)))
                      for eta in _floats(w.get("etas", str(params.eta)))
                      for n in _ints(w.get("truncations", "0"))]}
    if not sweep["runs"]:
        raise ConfigError("[sweep] needs at least one lambda, eta and truncation")
    names = [name for name, _ in sweep["runs"]]
    if len(set(names)) < len(names):
        raise ConfigError(f"[sweep] two runs would share an output directory: {names}")
    if not all(0.0 < x < np.inf for x in (t_end, cdep["t_end"], sweep["t_end"])):  # NaN too
        raise ConfigError("t_end ([run], [cdep], [sweep]) must be positive and finite")
    if any(n is not None and n < 1 for n in (max_steps, sweep["max_steps"])):
        raise ConfigError("max_steps ([run], [sweep]) must be >= 1")
    return {"dispersion": (pairs, dispersion), "cdep": cdep, "sweep": sweep}


def _has_rate(k_index: int, length: float, pairs) -> bool:
    """Whether mode k_index has a finite, nonzero growth rate at every pair."""
    try:
        k = diag.dispersion_wavenumber(k_index, length)
        return all(0.0 < abs(model.dispersion_sigma(k, p)) < np.inf for p in pairs)
    except OverflowError:  # k or k^2 past the float range
        return False


# ---------------------------------------------------------------------------
# provenance and output helpers


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_provenance(outdir: Path, config_path: Path, outputs: list[Path]) -> None:
    _json_out(outdir / "provenance.json", {
        "config_sha256": _sha256(config_path),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {str(p.relative_to(outdir)): _sha256(p) for p in outputs},
    })


def _json_out(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each returns the files it wrote, which `main` records in provenance.json


def _start(cfg: RunConfig, u: gr.ScalarField) -> gr.ScalarField:
    """u as a run of cfg starts from it: regularized at cfg's level, if it has one."""
    level = cfg.potential.level
    return u if level is None else initdata.regularize_initial(u, level)


def cmd_run(cfg: RunConfig, outdir: Path) -> list[Path]:
    u0 = _start(cfg, initdata.generate(cfg.initial, cfg.grid))
    ledger = diag.RunLedger()
    outputs: list[Path] = []

    if cfg.snapshot_every > 0:
        snapdir = outdir / "snapshots"
        snapdir.mkdir(parents=True, exist_ok=True)

        def hook(u, row, index):
            if index % cfg.snapshot_every == 0:
                raw, meta = snapshots.write_snapshot(
                    u, snapdir / f"state_{index:06d}", time=row.t, label=f"step{index}")
                outputs.extend([raw, meta])

        ledger.on_record = hook

    final = stepper.advance(u0, cfg.t_end, cfg.potential, cfg.solver,
                            ledger=ledger, max_steps=cfg.max_steps)
    ledger_path = outdir / "ledger.csv"
    ledger.write_csv(ledger_path)
    outputs.append(ledger_path)

    rows = ledger.rows
    summary = {
        "final_time": rows[-1].t,
        "steps": len(rows) - 1,
        "rejections": sum(r.rejections for r in rows),
        "final_energy": rows[-1].E_total,
        "final_delta_sep": rows[-1].delta_sep,
        "mass_drift": abs(rows[-1].mass - rows[0].mass),
    }
    summary_path = outdir / "summary.json"
    _json_out(summary_path, summary)
    outputs.append(summary_path)
    raw, meta = snapshots.write_snapshot(final, outdir / "final_state",
                                         time=rows[-1].t, label="final")
    outputs.extend([raw, meta])
    print(f"run complete: t={rows[-1].t:g}, {summary['steps']} steps, "
          f"E={summary['final_energy']:.6g}, mass drift {summary['mass_drift']:.3e}")
    return outputs


def cmd_init(cfg: RunConfig, outdir: Path) -> list[Path]:
    u0 = _start(cfg, initdata.generate(cfg.initial, cfg.grid))
    raw, meta = snapshots.write_snapshot(u0, outdir / "initial_state", time=0.0,
                                         label=cfg.initial.kind)
    print(f"wrote {raw} (mean={gr.mean(u0):.12g}, sup={gr.lp_norm(u0, np.inf):.6g})")
    return [raw, meta]


def cmd_dispersion(cfg: RunConfig, outdir: Path) -> list[Path]:
    pairs, opts = cfg.extras["dispersion"]
    path = outdir / "dispersion.csv"
    worst = 0.0
    with open(path, "w") as fh:
        fh.write("lambda,eta,k_index,k,measured,predicted,rel_error\n")
        for p in pairs:
            rows = diag.dispersion_experiment(p, **opts)
            for r in rows:
                worst = max(worst, r.rel_error)
                fh.write(f"{p.lam!r},{p.eta!r},{r.k_index},{r.k!r},"
                         f"{r.measured!r},{r.predicted!r},{r.rel_error!r}\n")
    print(f"dispersion: worst relative rate error {worst:.3e}")
    return [path]


def cmd_cdep(cfg: RunConfig, outdir: Path) -> list[Path]:
    opts = cfg.extras["cdep"]
    u01 = initdata.generate(cfg.initial, cfg.grid)
    u02 = u01 + initdata.generate(opts["bump"], cfg.grid)
    u01, u02 = _start(cfg, u01), _start(cfg, u02)  # each member as a run starts
    report = diag.cdep_experiment(u01, u02, cfg.potential, cfg.solver, opts["t_end"])
    payload = {
        "fitted_C": report.fitted_C,
        "envelope_ok": report.envelope_ok,
        "identical_inputs": report.identical_inputs,
        "times": report.times.tolist(),
        "dual_distance": report.dual_distance.tolist(),
    }
    path = outdir / "cdep.json"
    _json_out(path, payload)
    print(f"cdep: fitted C = {report.fitted_C:.6g}, envelope_ok = {report.envelope_ok}, "
          f"rejections = {report.rejections}")
    return [path]


def _sweep_worker(args) -> str:
    cfg, outdir, config_path, (name, nl) = args
    sub = outdir / name
    sub.mkdir(parents=True, exist_ok=True)
    sweep = cfg.extras["sweep"]
    run_cfg = replace(cfg, potential=nl, t_end=sweep["t_end"], max_steps=sweep["max_steps"])
    _write_provenance(sub, config_path, cmd_run(run_cfg, sub))
    return str(sub)


def cmd_sweep(cfg: RunConfig, outdir: Path, config_path: Path, threads: int) -> None:
    """Each run in its own subdirectory, with its own provenance.json."""
    jobs = [(cfg, outdir, config_path, run) for run in cfg.extras["sweep"]["runs"]]
    if threads > 1:
        # a pool may start all its workers at once: never more than there are jobs
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            done = list(pool.map(_sweep_worker, jobs))
    else:
        done = [_sweep_worker(job) for job in jobs]
    print(f"sweep: {len(done)} runs complete")


def cmd_verify() -> int:
    from .verify import run_invariant_suite

    results = run_invariant_suite()
    width = max(len(name) for name, _, _ in results)
    failures = []
    for name, ok, why in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}{f'  ({why})' if why else ''}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"verify: {len(failures)} failing invariant(s): {', '.join(failures)}")
        return 3
    print(f"verify: all {len(results)} invariant checks passed")
    return 0


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors raise ConfigError (exit 1) instead of
    exiting 2, the code of a solver failure here; --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _ArgumentParser(prog="sixch",
                             description="spectral engine for the sixth-order "
                                         "conserved flow with logarithmic potential")
    parser.add_argument("command",
                        choices=["run", "verify", "dispersion", "cdep", "sweep", "init"])
    parser.add_argument("--config", required=False, help="path to the INI config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":  # the suite reads no config and writes no files
            return cmd_verify()
        if not args.config:
            print("error: --config is required", file=sys.stderr)
            return 1
        config_path = Path(args.config)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = parse_config(config_path, seed_override=args.seed)
        outdir = Path(args.out or config_path.with_suffix("").name + "_out")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file, or under one, or not writable
            raise ConfigError(f"--out {outdir} cannot be made a directory ({exc.strerror})")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # built per call, so a wrapper bound over a cmd_* takes effect
    commands = {"run": cmd_run, "init": cmd_init, "dispersion": cmd_dispersion, "cdep": cmd_cdep,
                "sweep": lambda cfg, outdir: cmd_sweep(cfg, outdir, config_path, args.threads)}
    try:
        outputs = commands[args.command](cfg, outdir)
    except EngineError as exc:
        print(f"solver failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    if outputs is not None:  # None from sweep
        _write_provenance(outdir, config_path, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
