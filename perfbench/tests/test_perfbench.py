"""Tests of the benchmark's own code: seeded inputs, closed-form expectations, spans.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import layers
import spans
import workloads
from cylspec import operator_model, resolvent, spectral, stability, timedomain

BENCH = Path(__file__).resolve().parent.parent
SEEDS = range(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    assert json.dumps(w.inputs(5)) == json.dumps(w.inputs(5))
    assert json.dumps(w.inputs(5)) != json.dumps(w.inputs(6))


@pytest.mark.parametrize("seed", SEEDS)
def test_spectrum_seed_has_five_expected_poles(seed):
    w = workloads.WORKLOADS["spectrum"]
    state = w.setup(w.inputs(seed))
    assert -0.9 <= state["shift"] <= -0.6
    # positions do not depend on projections, which only set order and rank
    ps = resolvent.find_poles(state["spec"], state["basis"], window=state["window"],
                              compute_projections=False)
    got = sorted((p.lam for p in ps.poles), key=lambda z: -z.real)
    expected = w.expected_poles(state["shift"])
    assert len(got) == 5
    assert max(abs(a - b) for a, b in zip(got, expected)) <= workloads.POLE_TOL


def test_check_seeds_stay_clear_of_the_verdict_flip():
    for seed in range(200):
        xs = workloads.Check.inputs(seed)["x_star"]
        assert len(xs) == workloads.Check.N_RECENTRED
        assert all(-1.8 <= x <= 1.8 and abs(abs(x) - 1.0) >= workloads.Check.CLEARANCE
                   for x in xs)


@pytest.mark.parametrize("seed", range(3))
def test_check_seed_verdicts_match_closed_form(seed):
    w = workloads.WORKLOADS["check"]
    for x, spec in w.setup(w.inputs(seed))["recentred"]:
        failed, witness = workloads.recentred_verdict(x)
        rep = operator_model.check_assumptions(spec, sample_density=17)
        assert rep.failed() == failed
        if failed:
            got = rep.checks["ii"].witnesses[0]
            assert got["point"][1] == witness[0]
            assert abs(got["min_eig"] - witness[1]) <= workloads.WITNESS_TOL


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3]
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.x", 2.0, 3.0, 1),
        spans.Span("b", 3.0, 6.0, 0),
        spans.Span("c", 8.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 2, 1, 3, 1])


def test_layer_metrics_on_synthetic_tree():
    pencil_fine = {"eigenvalues": 40, "basis": (6, 64)}
    pencil = {"eigenvalues": 20, "basis": (4, 32)}
    tree = [
        spans.Span("resolvent.filter", 0.0, 10.0, None, {"kept": 5, "basis": (4, 32)}),
        spans.Span("resolvent.pencil", 0.0, 2.0, 0, pencil_fine),
        spans.Span("resolvent.pencil", 2.0, 3.0, 0, pencil),
        spans.Span("resolvent.projections", 3.0, 9.0, 0),
        spans.Span("resolvent.dense_resolvents", 3.0, 7.0, 3),
        spans.Span("timedomain.periodize", 10.0, 14.0, None),
        spans.Span("timedomain.evolve", 10.0, 12.0, 5, {"steps": 1000}),
        spans.Span("timedomain.evolve", 12.0, 14.0, 5, {"steps": 1000}),
    ]
    m = layers.layer_metrics(tree)
    assert m["resolvent.filter.s"] == pytest.approx(1.0)
    assert m["resolvent.projections.s"] == pytest.approx(2.0)
    assert m["resolvent.dense_resolvents"] == 1
    assert m["resolvent.filter.kept_ratio"] == pytest.approx(5 / 20)
    assert m["resolvent.pencil.eigenvalues"] == 60
    assert m["timedomain.rk4.steps"] == 2000
    assert m["timedomain.rk4.step_us"] == pytest.approx(4.0 / 2000 * 1e6)
    assert m["timedomain.periodize.periods"] == 2
    assert m["timedomain.periodize.s"] == pytest.approx(0.0)
    assert set(m) | set(layers.DIAGNOSTICS) | {"trace.overhead_s"} == set(layers.PER_LAYER)


def test_rk4_steps_are_exact():
    spec = operator_model.fixture("EX1")
    basis = spectral.build_basis(2, 8)
    tracer = spans.Tracer()
    restore = tracer.install(layers.TARGETS, [workloads])
    try:
        for stride in (1, 3, 16):
            timedomain.evolve(spec, basis, initial=np.ones((basis.n_space, 1)),
                              t_range=(0.0, 2 * math.pi), store_stride=stride)
    finally:
        restore()
    dt_max = timedomain.stable_time_step(spec, basis)
    n0 = math.ceil(2 * math.pi / dt_max - 1e-9)
    expected = [n0, 3 * math.ceil(n0 / 3), 16 * math.ceil(n0 / 16)]
    assert [s.attrs["steps"] for s in tracer.spans] == expected


def test_install_patches_every_binding_and_restores():
    original = resolvent.apply_resolvent
    assert stability.apply_resolvent is original
    restore = spans.Tracer().install(layers.TARGETS, [workloads])
    try:
        assert resolvent.apply_resolvent is not original
        assert stability.apply_resolvent is resolvent.apply_resolvent
    finally:
        restore()
    assert resolvent.apply_resolvent is original and stability.apply_resolvent is original


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_wall_ref_is_mean_pass_over_mean_reference():
    import run

    # passes of 3 s and 5 s; reference samples 0.01, 0.01, 0.02 and 0.02, 0.04
    passes = [run.Pass(None, 3.0, 3.0, [0.01, 0.01, 0.02]), run.Pass(None, 5.0, 5.0, [0.02, 0.04])]
    assert run.wall_ref(passes) == pytest.approx(4.0 / 0.02)


def test_reference_kernel_is_deterministic():
    import calibrate

    assert calibrate.kernel() == calibrate.kernel()


def test_sampler_takes_its_time_out_and_restores_the_handler():
    import signal
    import time

    import calibrate

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * calibrate.INTERVAL_S:
            sum(range(1000))
    assert len(sampler.refs) >= 4
    assert 0.0 < sampler.paused_wall < time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
