"""Command-line front end: JSON configs in, reports and plot data out.

Every run reads one JSON configuration, executes a single subcommand, and
writes its artifacts into an output directory: a report.json with stable
key order plus CSV (or JSON) tables and two-column .dat files ready for
plotting.  All randomness is drawn from the config seed, so identical
configs produce byte-identical outputs.

Exit codes: 0 on success, 2 when the configured coefficients fail the
admissibility test, 1 for malformed configs (the message names the
offending key), an output directory that cannot be written, or internal
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from heavychain import __version__
from heavychain.discretization import assemble_generator, sample_states
from heavychain.model import (
    ControllerGains,
    PhysicalFeedback,
    PhysicalParams,
    check_admissibility,
    derive_physical_thetas,
    rescale,
)
from heavychain.resolvent_bvp import (
    SMALL_TAU,
    TAU_CAP,
    continuous_resolvent_sweep,
    denominator_values,
    kernel_decay_study,
    random_smooth_data,
    solve_resolvent_bvp,
)
from heavychain.simulation import (
    decay_fit,
    energies,
    simulate,
    verify_energy_identity,
)
from heavychain.spectral import (
    huang_verdict,
    resolvent_apply_discrete,
    resolvent_norm_discrete,
    spectrum,
)

SUBCOMMANDS = {
    "check": "admissibility report for the configured coefficients",
    "simulate": "time-domain run with energy ledger and decay fit",
    "spectrum": "eigenvalues of the generator matrix",
    "sweep": "resolvent norms along the imaginary axis, both solvers",
    "bvp": "single-frequency continuous resolvent solve",
    "kernel": "frequency-decay study of the variation-of-constants kernel",
}


class ConfigError(ValueError):
    """Malformed configuration; key is the dotted path of the bad field."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


# ------------------------------------------------------------- config


@dataclass(frozen=True)
class Config:
    physical: PhysicalParams
    feedback: PhysicalFeedback
    gains: ControllerGains | None
    grid_n: int
    t_final: float
    dt: float | None
    tau_min: float
    tau_max: float
    sweep_points: int
    log_spacing: bool
    seed: int
    bvp_tau: float
    echo: dict

    def model(self):
        return rescale(self.physical, self.feedback)


def _section(raw: dict, name: str, allowed: tuple) -> dict:
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be an object")
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown key")
    return sec


def _number(sec: dict, name: str, path: str, *, default=None,
            positive: bool = False, integer: bool = False):
    if name not in sec:
        if default is ...:
            raise ConfigError(f"{path}.{name}", "missing required key")
        return default
    val = sec[name]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{name}", "must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
        raise ConfigError(f"{path}.{name}", "must be finite")
    if integer and int(val) != val:
        raise ConfigError(f"{path}.{name}", "must be an integer")
    if positive and not val > 0:
        raise ConfigError(f"{path}.{name}", "must be positive")
    return int(val) if integer else float(val)


def parse_config(raw: dict) -> Config:
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    allowed_top = ("physical", "gains", "thetas", "grid", "time", "sweep",
                   "seeds", "bvp")
    for key in raw:
        if key not in allowed_top:
            raise ConfigError(key, "unknown key")

    phys = _section(raw, "physical", ("rho", "L", "m_p", "m_c", "g"))
    vals = {}
    for name in ("rho", "L", "m_p", "m_c", "g"):
        vals[name] = _number(phys, name, "physical", default=..., positive=True)
    physical = PhysicalParams(rho=vals["rho"], L=vals["L"], m_p=vals["m_p"],
                              m_c=vals["m_c"], g=vals["g"])

    has_gains = "gains" in raw
    has_thetas = "thetas" in raw
    if has_gains == has_thetas:
        raise ConfigError("gains", "provide exactly one of gains or thetas")
    gains = None
    if has_gains:
        gsec = _section(raw, "gains", ("chi1", "chi2", "chi3"))
        gvals = {k: _number(gsec, k, "gains", default=..., positive=True)
                 for k in ("chi1", "chi2", "chi3")}
        gains = ControllerGains(**gvals)
        feedback = derive_physical_thetas(physical, gains)
    else:
        tsec = _section(raw, "thetas", ("theta1", "theta2", "theta3", "theta4"))
        tvals = {k: _number(tsec, k, "thetas", default=...)
                 for k in ("theta1", "theta2", "theta3", "theta4")}
        feedback = PhysicalFeedback(**tvals)

    grid = _section(raw, "grid", ("N",))
    grid_n = _number(grid, "N", "grid", default=100, positive=True, integer=True)
    if grid_n < 8:
        raise ConfigError("grid.N", "needs at least 8 cells")

    time_sec = _section(raw, "time", ("T", "dt"))
    t_final = _number(time_sec, "T", "time", default=400.0, positive=True)
    dt = _number(time_sec, "dt", "time", default=None, positive=True)

    sweep = _section(raw, "sweep", ("tau_min", "tau_max", "points", "log"))
    tau_min = _number(sweep, "tau_min", "sweep", default=0.1, positive=True)
    tau_max = _number(sweep, "tau_max", "sweep", default=1000.0, positive=True)
    if tau_max <= tau_min:
        raise ConfigError("sweep.tau_max", "must exceed sweep.tau_min")
    points = _number(sweep, "points", "sweep", default=200, positive=True,
                     integer=True)
    if points < 2:
        raise ConfigError("sweep.points", "needs at least 2 points")
    log_spacing = sweep.get("log", True)
    if not isinstance(log_spacing, bool):
        raise ConfigError("sweep.log", "must be a boolean")

    seed = raw.get("seeds", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seeds", "must be a non-negative integer")

    bvp = _section(raw, "bvp", ("tau",))
    bvp_tau = _number(bvp, "tau", "bvp", default=5.0)
    if abs(bvp_tau) > TAU_CAP:
        raise ConfigError("bvp.tau", f"|tau| must not exceed {TAU_CAP}")

    return Config(physical=physical, feedback=feedback, gains=gains,
                  grid_n=grid_n, t_final=t_final, dt=dt, tau_min=tau_min,
                  tau_max=tau_max, sweep_points=points,
                  log_spacing=log_spacing, seed=seed, bvp_tau=bvp_tau,
                  echo=raw)


def load_config(path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    return parse_config(raw)


# ------------------------------------------------------------ reporting


def _jsonify(obj):
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if not np.isfinite(val):
            return repr(val)
        return val
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


def write_report(report: dict, out_dir: Path) -> Path:
    """Dump the report as report.json, listing it among the sorted artifacts."""
    path = out_dir / "report.json"
    report["artifacts"] = sorted(report["artifacts"] + [path.name])
    payload = _jsonify(report)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return path


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _plain(values):
    """values with an ndarray as nested Python lists, which format faster
    than NumPy scalars and the same under _fmt and _jsonify."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _write_table(out_dir: Path, stem: str, columns: list, rows, fmt: str) -> str:
    rows = _plain(rows)
    if fmt == "json":
        name = f"{stem}.json"
        payload = {"columns": columns,
                   "rows": [[_jsonify(v) for v in row] for row in rows]}
        (out_dir / name).write_text(
            json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    else:
        name = f"{stem}.csv"
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


def _write_plot(out_dir: Path, stem: str, x, y) -> str:
    """Write the points (x, y) as a two-column whitespace .dat file."""
    name = f"{stem}.dat"
    lines = [f"{_fmt(a)} {_fmt(b)}" for a, b in zip(_plain(x), _plain(y))]
    (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


def _admissibility_dict(rep, m) -> dict:
    return {
        **asdict(rep),
        "parabola_margin": rep.parabola_margin,
        "thetas_rescaled": list(m.thetas),
        "length_rescaled": m.length,
        "tension_endpoints": [m.tension0, m.tensionL],
    }


def _verdict(check: str, outcome: str, source: str) -> dict:
    return {"check": check, "outcome": outcome, "source": source}


# ----------------------------------------------------------- subcommands


def _run_spectrum(cfg: Config, report: dict, out_dir: Path, fmt: str):
    sys_h = assemble_generator(cfg.model(), cfg.grid_n)
    rep = spectrum(sys_h)
    lam = np.sort_complex(rep.eigenvalues)
    report["spectrum"] = {
        "n": cfg.grid_n,
        "abscissa": rep.abscissa,
        "stable": rep.stable,
        "rightmost": [complex(v) for v in rep.rightmost],
        "count": int(len(lam)),
    }
    report["verdicts"].append(_verdict(
        "spectral-abscissa-negative",
        "pass" if rep.stable else "fail",
        "heavychain.spectral.spectrum",
    ))
    rows = np.column_stack([lam.real, lam.imag])
    report["artifacts"] += [
        _write_table(out_dir, "eigenvalues", ["re", "im"], rows, fmt),
        _write_plot(out_dir, "eigenvalues", lam.real, lam.imag)]


def _run_simulate(cfg: Config, report: dict, out_dir: Path, fmt: str):
    sys_h = assemble_generator(cfg.model(), cfg.grid_n)
    rng = np.random.default_rng(cfg.seed)
    z0 = rng.standard_normal(sys_h.grid.size)
    # an eighth of the CFL-like step keeps the time-stepping error from
    # polluting both the energy identity and the fitted decay rate
    dt = cfg.dt or sys_h.grid.dx / (8.0 * float(np.sqrt(sys_h.model.tension0)))
    steps = int(round(cfg.t_final / dt))
    if steps < 2:  # the ledger's dV/dt needs three samples
        raise ConfigError("time.T", f"must span at least 2 time steps of dt = {dt:.6g}")
    tr = simulate(z0, sys_h, cfg.t_final, dt=dt,
                  store_every=max(1, steps // 2000))
    et = energies(tr, cfg.physical, cfg.gains)
    # the identity check needs every step of a trace and a state smooth
    # enough for the spatial truncation constants to be moderate, so it
    # gets its own short densely-stored segment from a domain-compatible
    # draw; the rough state above stays in charge of the decay fit
    t_ident = min(cfg.t_final, max(2.0, 4.0 * dt))
    z0_ident = sample_states(sys_h, 1, seed=cfg.seed)[0].real
    tr_ident = simulate(z0_ident, sys_h, t_ident, dt=dt, store_every=1)
    ident = verify_energy_identity(energies(tr_ident, cfg.physical, cfg.gains))
    norms = tr.norm_history()
    energy = {
        "identity": {k: v for k, v in asdict(ident).items() if k != "scale"},
        "initial_norm": float(norms[0]),
        "final_norm": float(norms[-1]),
        "steps_stored": int(len(tr.times)),
    }
    report["verdicts"].append(_verdict(
        "energy-identity",
        "pass" if ident.satisfied else "fail",
        "heavychain.simulation.verify_energy_identity",
    ))
    try:
        fit = decay_fit(tr)
        energy["decay"] = asdict(fit)
        report["verdicts"].append(_verdict(
            "norm-decay-fit", f"omega={fit.omega:.6g}",
            "heavychain.simulation.decay_fit"))
    except ValueError as exc:
        energy["decay"] = {"skipped": str(exc)}
    report["energy"] = energy
    cols = ["t", "hbar", "vbar", "total", "dvdt_lhs", "dvdt_rhs", "norm_h"]
    keep = norms > 0.0
    report["artifacts"] += [
        _write_table(out_dir, "energy", cols, np.column_stack([et.rows(), norms]), fmt),
        _write_plot(out_dir, "decay", et.t[keep], norms[keep])]


def _check_tau_cap(cfg: Config):
    """Refuse, before any work, a tau_max the continuous solver would refuse."""
    if cfg.tau_max > TAU_CAP:
        raise ConfigError("sweep.tau_max", f"must not exceed {TAU_CAP} for the "
                                           "continuous solver")


def _run_sweep(cfg: Config, report: dict, out_dir: Path, fmt: str):
    _check_tau_cap(cfg)
    m = cfg.model()
    sys_h = assemble_generator(m, cfg.grid_n)
    spec = spectrum(sys_h)
    space = np.geomspace if cfg.log_spacing else np.linspace
    discrete = [resolvent_norm_discrete(sys_h, t)
                for t in space(cfg.tau_min, cfg.tau_max, cfg.sweep_points)]
    rng = np.random.default_rng(cfg.seed)
    data = [random_smooth_data(rng, m.length) for _ in range(2)]
    lo = max(cfg.tau_min, SMALL_TAU)  # the continuous sweep starts at SMALL_TAU
    taus = space(lo, cfg.tau_max, min(25, cfg.sweep_points)) if lo < cfg.tau_max else []
    continuous = continuous_resolvent_sweep(m, taus, data)
    pooled = list(discrete) + list(continuous)
    verdict = huang_verdict(pooled, spec)
    report["sweep"] = {
        "n": cfg.grid_n,
        **asdict(verdict),
        "samples_discrete": len(discrete),
        "samples_continuous": len(continuous),
    }
    report["verdicts"].append(_verdict(
        "resolvent-sweep-shape", verdict.verdict,
        "heavychain.spectral.huang_verdict"))
    rows = sorted(((s.tau, s.norm, s.source) for s in pooled),
                  key=lambda r: (r[0], r[2]))
    taus, norms, _ = zip(*rows)
    report["artifacts"] += [
        _write_table(out_dir, "sweep", ["tau", "norm", "source"], rows, fmt),
        _write_plot(out_dir, "sweep", taus, norms)]


def _run_bvp(cfg: Config, report: dict, out_dir: Path, fmt: str):
    m = cfg.model()
    length = m.length
    f = lambda x: np.sin(np.pi * np.asarray(x, dtype=float) / length)
    fp = lambda x: (np.pi / length) * np.cos(np.pi * np.asarray(x, dtype=float) / length)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    sol = solve_resolvent_bvp(f, zero, cfg.bvp_tau, m,
                              f_prime=fp, g_prime=zero)
    # the same datum by the matrix route at grid.N, which solves
    # (i tau - A) z = F where the continuous one solves (A - i tau) z = F
    sys_h = assemble_generator(m, cfg.grid_n)
    x = sys_h.grid.x
    zd = resolvent_apply_discrete(sys_h, cfg.bvp_tau, np.concatenate([f(x), zero(x)]))
    zc = -np.concatenate([np.interp(x, sol.x, u.real) + 1j * np.interp(x, sol.x, u.imag)
                          for u in (sol.w, sol.v)])
    report["bvp"] = {
        "tau": sol.tau,
        "method": sol.method,
        "gain": sol.gain,
        "residual": sol.residual,
        "residual_lines": list(sol.residual_lines),
        "denominator_abs": abs(sol.denominator),
        "solution_norms": {"w_h2": sol.norms[0], "v_h1": sol.norms[1]},
        "data_norms": {"f_h2": sol.data_norms[0], "g_h1": sol.data_norms[1]},
        "datum": "f = sin(pi x / length), g = 0",
        "discrete_gap": float(sys_h.weighted_norm(zc - zd) / sys_h.weighted_norm(zd)),
    }
    ok = sol.residual <= (1e-6 if sol.method == "pipeline" else 5e-6)
    report["verdicts"].append(_verdict(
        "bvp-residual-small", "pass" if ok else "fail",
        "heavychain.resolvent_bvp.solve_resolvent_bvp"))
    srows = [(sol.tau, sol.gain, sol.residual,
              sol.c1.real, sol.c1.imag, sol.c2.real, sol.c2.imag,
              abs(sol.a0), abs(sol.a1))]
    report["artifacts"].append(_write_table(
        out_dir, "bvp_summary",
        ["tau", "gain", "residual", "c1_re", "c1_im", "c2_re", "c2_im",
         "a0", "a1"], srows, fmt))
    rows = np.column_stack([sol.x, sol.w.real, sol.w.imag,
                            sol.v.real, sol.v.imag])
    report["artifacts"].append(_write_table(
        out_dir, "bvp_solution", ["x", "w_re", "w_im", "v_re", "v_im"],
        rows, fmt))


def _run_kernel(cfg: Config, report: dict, out_dir: Path, fmt: str):
    _check_tau_cap(cfg)
    m = cfg.model()
    lo = max(cfg.tau_min, 10.0)
    hi = cfg.tau_max
    if hi / lo < 99.0:
        raise ConfigError(
            "sweep.tau_max",
            "kernel study needs tau_max >= 99 * max(tau_min, 10)")
    taus = np.geomspace(lo, hi, min(cfg.sweep_points, 13))
    length = m.length
    f = lambda x: np.cos(np.pi * np.asarray(x, dtype=float) / length) + 0.5
    study = kernel_decay_study(taus, f, m.tension, length)
    dens = denominator_values(m, study.taus)  # |N(tau)|, at least linear in tau
    growth = dens / study.taus
    report["kernel"] = {
        "slope_sup_kernel": study.slope_i0,
        "slope_sup_kernel_derivative": study.slope_i1,
        "denominator_over_tau": [growth.min(), growth.max()],
        "tau_min": float(taus[0]),
        "tau_max": float(taus[-1]),
        "points": int(len(taus)),
    }
    in_band = abs(study.slope_i0 + 2.0) < 0.2 and abs(study.slope_i1 + 1.0) < 0.2
    report["verdicts"].append(_verdict(
        "kernel-decay-slopes", "pass" if in_band else "fail",
        "heavychain.resolvent_bvp.kernel_decay_study"))
    rows = np.column_stack([study.taus, study.sup_i0, study.sup_i1, dens])
    report["artifacts"] += [
        _write_table(out_dir, "kernel", ["tau", "sup_i0", "sup_i1", "denominator_abs"],
                     rows, fmt),
        _write_plot(out_dir, "kernel_i0", study.taus, study.sup_i0),
        _write_plot(out_dir, "kernel_i1", study.taus, study.sup_i1),
        _write_plot(out_dir, "denominator", study.taus, dens)]


# "check" has no runner: the admissibility section and verdict of every
# report are its whole output
_RUNNERS = {
    "simulate": _run_simulate,
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "bvp": _run_bvp,
    "kernel": _run_kernel,
}


# ------------------------------------------------------------------ entry


def run(subcommand: str, config_path, out_dir, fmt: str = "csv") -> int:
    """Execute one subcommand; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        print(f"error: unknown subcommand {subcommand!r}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(config_path)
        if subcommand == "simulate" and cfg.gains is None:
            raise ConfigError(
                "gains",
                "simulate needs chi gains: the physical energy ledger is "
                "defined through them, raw thetas are not enough")
    except ConfigError as exc:
        print(f"config error: {exc.key}: {exc.reason}", file=sys.stderr)
        return 1

    out = Path(out_dir)
    m = cfg.model()
    adm = check_admissibility(m)
    report = {
        "subcommand": subcommand,
        "version": __version__,
        "config": cfg.echo,
        "admissibility": _admissibility_dict(adm, m),
        "verdicts": [_verdict("admissibility",
                              "pass" if adm.admissible else
                              "fail: " + "; ".join(adm.violations),
                              "heavychain.model.check_admissibility")],
        "artifacts": [],
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        if adm.admissible and subcommand in _RUNNERS:
            _RUNNERS[subcommand](cfg, report, out, fmt)
        write_report(report, out)
    except ConfigError as exc:
        print(f"config error: {exc.key}: {exc.reason}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out}: {exc.strerror}",
              file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the tool
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in adm.violations:
        print(f"not admissible: {v}", file=sys.stderr)
    return 0 if adm.admissible else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavychain",
        description="analysis runs for the boundary-controlled hanging "
                    "chain: admissibility, simulation, spectra, resolvents",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON configuration")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format (default csv)")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.format)


if __name__ == "__main__":
    sys.exit(main())
