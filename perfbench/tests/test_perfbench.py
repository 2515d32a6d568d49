"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    a = workloads.make_inputs(workload, 7)
    assert a == workloads.make_inputs(workload, 7)
    assert json.loads(json.dumps(a)) == a  # survives the trip to the worker
    assert a != workloads.make_inputs(workload, 8)


def test_gain_draws_straddle_the_threshold():
    inp = workloads.make_inputs("gain-scan", 3)
    above = [d["chi3"] > inp["threshold"] for d in inp["draws"]]
    assert len(above) == workloads.SCAN_DRAWS
    assert sum(not a for a in above) == workloads.SCAN_INADMISSIBLE


def test_closed_form_threshold_matches_the_program():
    from heavychain.model import PhysicalParams, chi3_threshold

    for phys in (workloads.REF_PHYSICAL,
                 {"rho": 2.0, "L": 1.5, "m_p": 0.3, "m_c": 1.0, "g": 9.81}):
        assert workloads.chi3_critical(phys) == pytest.approx(
            chi3_threshold(PhysicalParams(**phys)), rel=1e-12)


def _snapshot():
    import importlib

    mods = [importlib.import_module(spans.PACKAGE)]
    mods += [importlib.import_module(f"{spans.PACKAGE}.{m}") for m in spans.MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_wraps_imported_names_and_restores_them():
    import heavychain.cli
    import heavychain.model
    import heavychain.resolvent_bvp

    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert heavychain.cli.spectrum is not before[("heavychain.cli", "spectrum")]
        assert hasattr(heavychain.resolvent_bvp.weighted_norm, "__wrapped__")
        params = heavychain.model.PhysicalParams(**workloads.REF_PHYSICAL)
        heavychain.model.chi3_threshold(params)
    finally:
        tracer.uninstall()
    assert [(s.name, s.layer) for s in tracer.spans] == [
        ("model.chi3_threshold", "model")]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    tree = [spans.Span("cli.run.sweep", "cli", 0.0, 10.0),
            spans.Span("spectral.spectrum", "spectral", 1.0, 4.0, parent=0),
            spans.Span("resolvent_bvp.solve_resolvent_bvp", "resolvent_bvp",
                       5.0, 9.0, parent=0, info={"method": "pipeline"}),
            spans.Span("resolvent_bvp.fundamental_pair", "resolvent_bvp",
                       6.0, 7.0, parent=2, info={"points": 11})]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == 3.0
    assert m["cli.run.sweep_s"] == 10.0
    assert m["spectral.busy_s"] == 3.0
    assert m["resolvent_bvp.busy_s"] == 4.0
    assert m["resolvent_bvp.solve_resolvent_bvp_s"] == 4.0
    assert m["resolvent_bvp.fundamental_pair.points"] == 11
    assert m["resolvent_bvp.solves_per_pair"] == 1.0
    # self times add up to the root span: nothing counted twice
    assert sum(spans.self_times(tree)) == tree[0].duration


def test_nested_calls_of_one_function_count_once_in_its_total():
    tree = [spans.Span("resolvent_bvp.solve_resolvent_bvp", "resolvent_bvp", 0.0, 5.0),
            spans.Span("resolvent_bvp.solve_resolvent_bvp", "resolvent_bvp",
                       1.0, 4.0, parent=0)]
    assert spans.layer_metrics(tree)["resolvent_bvp.solve_resolvent_bvp_s"] == 5.0


def test_reference_checks_by_kind(monkeypatch):
    ref = {"w": {"q_eq": {"value": "pass"},
                 "q_band": {"value": 2.0, "lo": 1.0, "hi": 3.0}}}
    monkeypatch.setitem(workloads.SPECS, "w", {
        "q_eq": ("eq",), "q_band": ("band", 0.5), "q_le": ("le", 1.0),
        "q_lt": ("lt", 0.0)})
    ok = workloads.check("w", {"q_eq": "pass", "q_band": 3.9, "q_le": 1.0,
                               "q_lt": -1e-9}, ref)
    bad = workloads.check("w", {"q_eq": "fail", "q_band": 4.1, "q_le": 1.1,
                                "q_lt": 0.0}, ref)
    missing = workloads.check("w", {}, ref)
    assert all(r[1] for r in ok)
    assert not any(r[1] for r in bad)
    assert not any(r[1] for r in missing)


def test_reference_covers_every_checked_quantity():
    ref = workloads.load_reference()
    for workload, specs in workloads.SPECS.items():
        for name, spec in specs.items():
            if spec[0] in ("eq", "band"):
                assert name in ref[workload], (workload, name)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_printed_metric_names_match_the_declared_set():
    bench = _declared()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == worker.per_layer_names()
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_documented():
    doc = (BENCH / "README.md").read_text(encoding="utf-8")
    bench = _declared()
    for m in bench["end_to_end"] + bench["per_layer"]:
        name = m["name"]
        if name.startswith("stage."):
            name = "stage." + name.split(".")[1]
        assert f"`{name}" in doc, name
    for w in workloads.WORKLOADS:
        assert f"`{w}`" in doc
