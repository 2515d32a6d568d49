"""Config parsing, exit codes, artifact determinism of the CLI."""

import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from heavychain import cli
from heavychain.cli import ConfigError, load_config, parse_config, run
from heavychain.discretization import assemble_generator
from heavychain.model import (
    PhysicalParams,
    check_admissibility,
    chi3_threshold,
    derive_physical_thetas,
)
from heavychain.resolvent_bvp import denominator_values, solve_resolvent_bvp
from heavychain.spectral import resolvent_apply_discrete

LIGHT = {
    "physical": {"rho": 1.0, "L": 1.0, "m_p": 1.0, "m_c": 1.0, "g": 9.81},
    "gains": {"chi1": 1.0, "chi2": 1.0, "chi3": 2.5},
    "grid": {"N": 24},
    "time": {"T": 600.0},
    "sweep": {"tau_min": 0.5, "tau_max": 20.0, "points": 10},
    "seeds": 7,
    "bvp": {"tau": 5.0},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(LIGHT))
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_check_reference_is_admissible(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("check", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    adm = rep["admissibility"]
    assert adm["admissible"] is True
    assert adm["chi3_threshold"] == pytest.approx(1.9780, rel=1e-3)
    assert adm["chi3_threshold"] == chi3_threshold(PhysicalParams(**LIGHT["physical"]))
    assert adm["parabola_margin"] > 0.0
    assert adm["gamma"] is not None
    assert rep["config"] == json.loads(cfg.read_text(encoding="utf-8"))
    assert rep["verdicts"][0]["check"] == "admissibility"
    assert rep["verdicts"][0]["source"].startswith("heavychain.model")


def test_check_below_threshold_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, gains={"chi1": 1.0, "chi2": 1.0, "chi3": 1.0})
    out = tmp_path / "out"
    assert run("check", cfg, out) == 2
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["admissibility"]["admissible"] is False
    assert rep["admissibility"]["parabola_margin"] < 0.0
    assert rep["admissibility"]["chi3_threshold"] == chi3_threshold(
        PhysicalParams(**LIGHT["physical"]))
    joined = " ".join(rep["admissibility"]["violations"])
    assert "parabola" in joined
    assert "parabola" in capsys.readouterr().err


def test_missing_required_key_cites_it(tmp_path, capsys):
    cfg = write_config(tmp_path, physical={"L": 1.0, "m_p": 1.0,
                                           "m_c": 1.0, "g": 9.81})
    assert run("check", cfg, tmp_path / "out") == 1
    assert "physical.rho" in capsys.readouterr().err


def test_unknown_and_conflicting_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="typo"):
        parse_config({**LIGHT, "typo": 1})
    thetas = {"theta1": -1.0, "theta2": 1.0, "theta3": -1.0, "theta4": 1.0}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({**LIGHT, "thetas": thetas})
    with pytest.raises(ConfigError, match="sweep.points"):
        parse_config({**LIGHT, "sweep": {"points": 1}})
    with pytest.raises(ConfigError, match="grid.N"):
        parse_config({**LIGHT, "grid": {"N": 4}})


@pytest.mark.parametrize("key, override", [
    ("bvp.tau", {"bvp": {"tau": float("nan")}}),
    ("thetas.theta1", {"gains": None, "thetas": {
        "theta1": float("nan"), "theta2": 1.0, "theta3": -1.0, "theta4": 1.0}}),
    ("physical.rho", {"physical": {**LIGHT["physical"], "rho": float("inf")}}),
    ("bvp.tau", {"bvp": {"tau": 10**400}}),
], ids=["nan", "nan-theta", "infinity", "beyond-float"])
def test_non_finite_number_exits_one_citing_key(tmp_path, capsys, key, override):
    cfg = write_config(tmp_path, **override)
    assert run("check", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert key in err and "finite" in err


def test_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run("check", path, tmp_path / "out") == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("blocker", ["file", "file-parent"])
def test_unwritable_out_exits_one(tmp_path, capsys, blocker):
    # an --out that names a file, or a path under one, is a usage error
    cfg = write_config(tmp_path)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    out = tmp_path / "taken" if blocker == "file" else tmp_path / "taken" / "out"
    assert run("check", cfg, out) == 1
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_config_accepts_direct_thetas(tmp_path):
    from tests.conftest import REF_GAINS, REF_PARAMS

    fb = derive_physical_thetas(REF_PARAMS, REF_GAINS)
    cfg = json.loads(json.dumps(LIGHT))
    del cfg["gains"]
    cfg["thetas"] = {f"theta{i}": t for i, t in enumerate(fb.thetas, start=1)}
    path = tmp_path / "thetas.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run("check", path, tmp_path / "out") == 0


def test_simulate_requires_gains(tmp_path, capsys):
    from tests.conftest import REF_GAINS, REF_PARAMS

    fb = derive_physical_thetas(REF_PARAMS, REF_GAINS)
    cfg = json.loads(json.dumps(LIGHT))
    del cfg["gains"]
    cfg["thetas"] = {f"theta{i}": t for i, t in enumerate(fb.thetas, start=1)}
    path = tmp_path / "thetas.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run("simulate", path, tmp_path / "out") == 1
    assert "gains" in capsys.readouterr().err


@pytest.mark.parametrize("time_sec, code", [
    ({"T": 0.0001}, 1),
    ({"T": 1.0, "dt": 1.0}, 1),
    ({"T": 1.0, "dt": 2.0}, 1),
    ({"T": 1.0, "dt": 0.5}, 0),  # two steps are enough for the energy ledger
], ids=["default-dt", "dt-equals-T", "dt-beyond-T", "two-steps"])
def test_simulate_needs_two_time_steps(tmp_path, capsys, time_sec, code):
    cfg = write_config(tmp_path, time=time_sec)
    assert run("simulate", cfg, tmp_path / "out") == code
    assert ("time.T" in capsys.readouterr().err) == (code == 1)


def test_spectrum_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["spectrum"]["abscissa"] < 0.0
    assert rep["spectrum"]["stable"] is True
    rows = (out / "eigenvalues.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "re,im"
    assert len(rows) - 1 == rep["spectrum"]["count"] == 2 * (24 + 1)
    scatter = np.loadtxt(out / "eigenvalues.dat")
    assert scatter.shape == (50, 2)
    assert np.all(scatter[:, 0] < 0.0)
    assert set(rep["artifacts"]) == {"eigenvalues.csv", "eigenvalues.dat",
                                     "report.json"}


def test_simulate_identity_and_decay(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    ident = rep["energy"]["identity"]
    assert ident["satisfied"] is True
    assert ident["residual"] <= ident["bound"]
    assert rep["energy"]["decay"]["omega"] > 0.0
    header = (out / "energy.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,hbar,vbar,total,dvdt_lhs,dvdt_rhs,norm_h"
    decay = np.loadtxt(out / "decay.dat")
    assert np.all(decay[:, 1] > 0.0)
    assert decay[-1, 1] < decay[0, 1]


def test_sweep_pools_both_sources(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("sweep", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["sweep"]["samples_discrete"] == 10
    assert rep["sweep"]["samples_continuous"] == 10
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tau,norm,source"
    sources = {line.split(",")[2] for line in lines[1:]}
    assert sources == {"discrete", "continuous"}
    taus = [float(line.split(",")[0]) for line in lines[1:]]
    assert taus == sorted(taus)
    plot = np.loadtxt(out / "sweep.dat")
    assert np.all(np.diff(plot[:, 0]) >= 0.0)


def test_report_blocks_are_the_result_records(tmp_path, monkeypatch):
    # each report block carries every field of its result record, so a
    # field added to a record reaches the report with no CLI edit
    records = {}
    for name in ("huang_verdict", "decay_fit", "verify_energy_identity"):
        def capture(*args, fun=getattr(cli, name), name=name):
            records[name] = fun(*args)
            return records[name]
        monkeypatch.setattr(cli, name, capture)
    cfg = write_config(tmp_path)
    reports = {}
    for sub in ("sweep", "simulate"):
        assert run(sub, cfg, tmp_path / sub) == 0
        reports[sub] = json.loads((tmp_path / sub / "report.json").read_text(encoding="utf-8"))

    def as_json(record, drop=()):
        fields = {k: v for k, v in asdict(record).items() if k not in drop}
        return json.loads(json.dumps(cli._jsonify(fields)))

    def block_has(block, fields):
        assert {k: block[k] for k in fields} == fields

    adm = as_json(check_admissibility(load_config(cfg).model()))
    for report in reports.values():
        block_has(report["admissibility"], adm)
    block_has(reports["sweep"]["sweep"], as_json(records["huang_verdict"]))
    energy = reports["simulate"]["energy"]
    assert energy["decay"] == as_json(records["decay_fit"])
    assert energy["identity"] == as_json(records["verify_energy_identity"], drop=("scale",))


def test_sweep_linear_spacing(tmp_path):
    sweep = {"tau_min": 0.5, "tau_max": 20.0, "points": 7, "log": False}
    cfg = write_config(tmp_path, sweep=sweep)
    out = tmp_path / "out"
    assert run("sweep", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["sweep"]["samples_discrete"] == 7
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    taus = [float(line.split(",")[0]) for line in lines if line.endswith(",discrete")]
    assert taus == pytest.approx(np.linspace(0.5, 20.0, 7).tolist())


def test_sweep_below_small_tau_has_no_continuous_sample(tmp_path):
    # the continuous sweep starts at SMALL_TAU = 0.1, so a range below it
    # gets none, rather than samples above tau_max that decide the verdict
    cfg = write_config(tmp_path, grid={"N": 20},
                       sweep={"tau_min": 0.01, "tau_max": 0.05, "points": 5})
    out = tmp_path / "out"
    assert run("sweep", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert (rep["sweep"]["samples_discrete"], rep["sweep"]["samples_continuous"]) == (5, 0)
    assert rep["sweep"]["verdict"] == "inconclusive"
    assert rep["sweep"]["tau_at_max"] == 0.05
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["discrete"] * 5


@pytest.mark.parametrize("sub", ["sweep", "kernel"])
def test_tau_max_beyond_the_cap_is_a_config_error(tmp_path, capsys, monkeypatch, sub):
    # refused before any work, naming the key, and no report is written
    monkeypatch.setattr(cli, "assemble_generator", None)
    monkeypatch.setattr(cli, "kernel_decay_study", None)
    cfg = write_config(tmp_path, sweep={"tau_min": 10.0, "tau_max": 2000.0, "points": 5})
    out = tmp_path / "out"
    assert run(sub, cfg, out) == 1
    assert "config error: sweep.tau_max" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def bvp_discrete_gap(cfg_path):
    """|z_c - z_d|_H / |z_d|_H for bvp's datum at grid.N: the continuous
    solution, interpolated onto the grid, against the matrix route's."""
    cfg = load_config(cfg_path)
    m = cfg.model()
    f = lambda x: np.sin(np.pi * x / m.length)
    fp = lambda x: np.pi / m.length * np.cos(np.pi * x / m.length)
    zero = lambda x: np.zeros_like(x)
    sol = solve_resolvent_bvp(f, zero, cfg.bvp_tau, m, f_prime=fp, g_prime=zero)
    sys_h = assemble_generator(m, cfg.grid_n)
    x = sys_h.grid.x
    zd = resolvent_apply_discrete(sys_h, cfg.bvp_tau, np.concatenate([f(x), zero(x)]))
    # (A - i tau) z = F against (i tau - A) z = F: opposite signs
    zc = -np.concatenate([np.interp(x, sol.x, u.real) + 1j * np.interp(x, sol.x, u.imag)
                          for u in (sol.w, sol.v)])
    return sys_h.weighted_norm(zc - zd) / sys_h.weighted_norm(zd)


def test_bvp_summary_and_solution(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("bvp", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["bvp"]["method"] == "pipeline"
    assert rep["bvp"]["residual"] <= 1e-6
    lines = (out / "bvp_summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tau,gain,residual,c1_re,c1_im,c2_re,c2_im,a0,a1"
    assert len(lines) == 2
    sol_header = (out / "bvp_solution.csv").read_text(
        encoding="utf-8").splitlines()[0]
    assert sol_header == "x,w_re,w_im,v_re,v_im"
    # the continuous solve against the matrix route at grid.N; the gap is
    # the grid's error, so it falls at second order
    gaps = []
    for n in (100, 200):
        cfg = write_config(tmp_path, f"cfg{n}.json", grid={"N": n})
        assert run("bvp", cfg, tmp_path / f"out{n}") == 0
        rep = json.loads((tmp_path / f"out{n}" / "report.json").read_text(encoding="utf-8"))
        assert rep["bvp"]["discrete_gap"] == pytest.approx(bvp_discrete_gap(cfg), rel=1e-12)
        gaps.append(rep["bvp"]["discrete_gap"])
    assert 3.8 <= gaps[0] / gaps[1] <= 4.2


def test_bvp_collocation_reports_the_boundary_determinant(tmp_path):
    # below SMALL_TAU the report carries N(tau) from the closed form (not
    # 0.0, which reads as resonance) and the summary NaN for the pipeline
    # coefficients the collocation route does not compute
    cfg = write_config(tmp_path, bvp={"tau": 0.05})
    out = tmp_path / "out"
    assert run("bvp", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rep["bvp"]["method"] == "collocation"
    assert rep["bvp"]["denominator_abs"] == pytest.approx(1.7346, abs=1e-4)
    lines = (out / "bvp_summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[3:] == ["nan"] * 6
    # the gap is still reported; its reference is then the 2 000-cell
    # matrix route
    assert rep["bvp"]["discrete_gap"] == pytest.approx(bvp_discrete_gap(cfg), rel=1e-12)


def test_kernel_slopes_in_band(tmp_path):
    cfg = write_config(tmp_path,
                       sweep={"tau_min": 10.0, "tau_max": 1000.0, "points": 5})
    out = tmp_path / "out"
    assert run("kernel", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert abs(rep["kernel"]["slope_sup_kernel"] + 2.0) < 0.2
    assert abs(rep["kernel"]["slope_sup_kernel_derivative"] + 1.0) < 0.2
    assert (out / "kernel_i0.dat").exists()
    assert (out / "kernel_i1.dat").exists()
    # |N(tau)| at the study's frequencies: a table column, a plot file and
    # the range of |N(tau)|/tau, the growth that keeps c1 and c2 bounded
    header, *lines = (out / "kernel.csv").read_text(encoding="utf-8").splitlines()
    assert header == "tau,sup_i0,sup_i1,denominator_abs"
    taus, dens = np.array([[float(v) for v in line.split(",")] for line in lines])[:, [0, 3]].T
    assert dens.tolist() == denominator_values(load_config(cfg).model(), taus).tolist()
    plot = [line.split() for line in
            (out / "denominator.dat").read_text(encoding="utf-8").splitlines()]
    assert [[float(a), float(b)] for a, b in plot] == np.column_stack([taus, dens]).tolist()
    low, high = rep["kernel"]["denominator_over_tau"]
    assert [low, high] == [min(dens / taus), max(dens / taus)] and low > 0.0


def test_kernel_rejects_short_range(tmp_path, capsys):
    cfg = write_config(tmp_path)  # sweep range [0.5, 20] is too narrow
    assert run("kernel", cfg, tmp_path / "out") == 1
    assert "sweep.tau_max" in capsys.readouterr().err


def test_identical_configs_byte_identical_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for sub in ("spectrum", "sweep"):
        assert run(sub, cfg, out_a) == 0
        assert run(sub, cfg, out_b) == 0
    for name in ("report.json", "sweep.csv", "sweep.dat",
                 "eigenvalues.csv", "eigenvalues.dat"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_json_table_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("spectrum", cfg, out, fmt="json") == 0
    table = json.loads((out / "eigenvalues.json").read_text(encoding="utf-8"))
    assert table["columns"] == ["re", "im"]
    assert len(table["rows"]) == 50
    assert not (out / "eigenvalues.csv").exists()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "heavychain.cli", "check",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_load_config_defaults(tmp_path):
    path = write_config(tmp_path, grid=None, time=None, sweep=None,
                        seeds=None, bvp=None)
    cfg = load_config(path)
    assert cfg.grid_n == 100
    assert cfg.t_final == 400.0
    assert cfg.dt is None
    assert (cfg.tau_min, cfg.tau_max, cfg.sweep_points) == (0.1, 1000.0, 200)
    assert cfg.log_spacing is True
    assert cfg.seed == 0
    assert cfg.bvp_tau == 5.0
