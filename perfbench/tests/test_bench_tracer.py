import json
import os
import sys

import numpy as np
import pytest

import conekit
import tracer as tracing
import workloads
from conekit import bipartite, suites

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def installed():
    trace = tracing.Tracer()
    trace.install(conekit)
    try:
        yield trace
    finally:
        trace.uninstall()


def test_wraps_every_namespace_and_restores_on_uninstall():
    originals = (suites.lift_product_to_target, bipartite.lift_product_to_target,
                 conekit.lift_product_to_target, np.linalg.eigh)
    trace = tracing.Tracer()
    trace.install(conekit)
    try:
        assert suites.lift_product_to_target is bipartite.lift_product_to_target
        assert suites.lift_product_to_target is not originals[0]
        assert np.linalg.eigh is not originals[3]
        assert "bipartite.lift_product_to_target" in trace.hooked
        assert "_kernels.seesaw_minimize" in trace.hooked
    finally:
        trace.uninstall()
    assert (suites.lift_product_to_target, bipartite.lift_product_to_target,
            conekit.lift_product_to_target, np.linalg.eigh) == originals


def test_spans_of_one_op_fold_into_calls_and_self_time(installed):
    dims = conekit.BipartiteDims(2, 2)
    conekit.rerun_trial("strict-enlargement", dims, 3, 1)  # outside an op: not recorded
    assert not installed.calls
    installed.begin_op(0)
    ok, _, _ = conekit.rerun_trial("strict-enlargement", dims, 3, 1)
    installed.end_op()
    assert ok
    assert installed.calls["suites.rerun_trial"] == 1
    assert installed.calls["bipartite.lift_product_to_target"] == 1
    assert installed.calls["bipartite.complete_orthonormal_basis"] == 2
    assert installed.pair_calls[("bipartite.complete_orthonormal_basis",
                                 "bipartite.lift_product_to_target")] == 2
    # Self times partition the root span's duration.
    assert sum(installed.self_ms.values()) == pytest.approx(installed.ms["suites.rerun_trial"])
    assert installed.trials[("strict-enlargement", "2x2")] == 1


def _span(name, start, end, parent, payload=None, raised=False):
    return [name, start, end, parent, 0, payload, raised]


def test_derived_ratios_from_synthetic_spans():
    trace = tracing.Tracer()
    trace.hooked = {h for h in tracing.CALLS_AND_MS + tracing.CALLS_ONLY + tracing.MS_ONLY}
    trace.hooked |= {"sampling.ginibre", "suites.rerun_trial", "suites.run_suite",
                     "membership.min_product_expectation", "matio.atomic_write_text"}
    trace.modules = set(tracing.MODULES)
    trace._spans[:] = [
        _span("membership.min_sr_k_expectation", 0.0, 1.0, -1),
        _span("_kernels.seesaw_minimize", 0.0, 0.2, 0, (1, -1.0)),
        _span("_kernels.seesaw_minimize", 0.2, 0.4, 0, (1, -1.0 + 1e-12)),
        _span("_kernels.seesaw_minimize", 0.4, 0.6, 0, (1, -0.5)),
        _span("_kernels.seesaw_minimize", 0.6, 0.8, 0, (2, -2.0)),
        _span("linalg.eigh", 0.0, 0.1, 1),
        _span("linalg.eigh", 0.1, 0.2, 1),
        _span("sampling.random_ppt", 1.0, 2.0, -1),
        _span("sampling.ginibre", 1.0, 1.1, 7),
        _span("sampling.ginibre", 1.1, 1.2, 7),
        _span("sampling.ginibre", 1.2, 1.3, 7),
        _span("sampling.ginibre", 1.3, 1.4, 7),
        _span("sampling.random_ppt", 2.0, 3.0, -1, raised=True),
        _span("kraus.apply", 3.0, 4.0, -1),
        _span("kraus.validate", 3.0, 3.5, 13),
        _span("kraus.validate", 4.0, 4.5, -1),
    ]
    trace.end_op()
    values, absent = tracing.layer_metrics(trace, 2, [], 1.25)
    assert absent == []
    assert values["_kernels.restarts_per_call"] == 4.0
    assert values["_kernels.eigh_per_restart"] == 0.5
    assert values["_kernels.restart_agree_ratio"] == 0.75  # 2 of 3 at level 1, 1 of 1 at level 2
    assert values["sampling.random_ppt.accept_ratio"] == 0.25
    assert values["kraus.validate.per_apply"] == 2.0
    assert values["sampling.random_ppt.calls"] == 1.0  # per round
    assert values["membership.min_sr_k_expectation.ms"] == pytest.approx(500.0)
    assert values["_kernels.self_ms"] == pytest.approx(300.0)  # (800 ms - 200 ms of eigh) / 2 rounds
    assert values["trace.overhead"] == 1.25


def test_missing_module_is_reported_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "minikit"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .bipartite import osr\n")
    (pkg / "bipartite.py").write_text("def osr(a):\n    return 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import minikit

    trace = tracing.Tracer()
    trace.install(minikit)
    try:
        trace.begin_op(0)
        assert minikit.osr(None) == 1
        trace.end_op()
    finally:
        trace.uninstall()
        sys.modules.pop("minikit", None)
        sys.modules.pop("minikit.bipartite", None)
    values, absent = tracing.layer_metrics(trace, 1, [], 1.0)
    assert values["bipartite.osr.calls"] == 1.0
    assert "_kernels.seesaw_minimize.calls" in absent
    assert "_kernels.self_ms" in absent
    assert "matio.canonical_dumps.ms" in absent
    assert "bipartite.osr.calls" not in absent
    assert values["_kernels.seesaw_minimize.calls"] == 0.0


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    layers = tracing.metric_names(workloads.all_suite_pairs())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
