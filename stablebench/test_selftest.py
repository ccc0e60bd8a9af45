"""Self-tests of the benchmark: tracer transparency, binding restore, self
times, the gate, and agreement with BENCHMARK.json.

Run from the root of a checkout:  python3 -m pytest -q stablebench
They use reduced input sizes (``Workload.small``) and take a few seconds.
"""

import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _small_outputs(name, traced=None):
    w = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as d:
        inputs = w.setup(3, w.small, Path(d))
        if traced is None:
            return w.outputs(w.op(inputs))
        with traced:
            return w.outputs(traced.span(w.op, inputs))


def _bindings():
    """Identity snapshot of every namespace the tracer may rebind."""
    names = [n for n in sys.modules if n == "stablevar" or n.startswith("stablevar.")]
    spaces = [sys.modules[n] for n in sorted(names)] + [importlib.import_module("scipy.integrate")]
    sv = workloads.sv
    spaces += [sv.SeriesMatrix, sv.EstimationReport]
    return {(id(s), k): v for s in spaces for k, v in list(vars(s).items())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced(name):
    plain = _small_outputs(name)
    traced = _small_outputs(name, Tracer())
    assert plain.keys() == traced.keys()
    for key in plain:
        np.testing.assert_array_equal(traced[key], plain[key], err_msg=key)


def test_tracer_restores_every_binding():
    before = _bindings()
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr:
            floc = sys.modules["stablevar.floc"]
            diagnostics = sys.modules["stablevar.diagnostics"]
            # both the defining module and the importing module are rebound
            assert floc.cross_floc is not before[(id(floc), "cross_floc")]
            assert diagnostics.cross_floc is floc.cross_floc
            assert importlib.import_module("scipy.integrate").quad.__wrapped__ is not None
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not tr.absent


def test_self_times_sum_within_traced_wall():
    import time

    w = workloads.WORKLOADS["mc_paper"]
    tr = Tracer()
    with tempfile.TemporaryDirectory() as d:
        inputs = w.setup(5, w.small, Path(d))
        with tr:
            t0 = time.perf_counter()
            tr.span(w.op, inputs)
            wall = time.perf_counter() - t0
    self_sum = sum(s.self_s for s in tr.stats.values())
    assert 0.0 < self_sum <= wall
    assert tr.stats[tracer.ROOT_SPAN].total_s <= wall
    assert all(s.self_s >= -1e-9 for s in tr.stats.values())
    spans = {s[0]: s for s in tr.spans}
    for span_id, parent, name, start, end in tr.spans:
        if parent >= 0:
            _, _, _, p_start, p_end = spans[parent]
            assert p_start <= start <= end <= p_end, name
        else:
            assert name == tracer.ROOT_SPAN


def test_absent_target_reads_zero():
    missing = Target("floc.no_such_function", "stablevar.floc", "no_such_function")
    gone = Target("nowhere.fn", "stablevar.no_such_module", "fn", ("calls", "self_s"))
    tr = Tracer(tracer.TARGETS + (missing, gone))
    with tr:
        pass
    assert tr.absent == ["floc.no_such_function", "nowhere.fn"]
    metrics = tr.layer_metrics(1)
    assert metrics["floc.no_such_function.calls"] == (0.0, "count")


def test_gate_accepts_planned_deviations_and_rejects_wrong_answers():
    mc = gate.load_reference("mc_paper", 0)
    diag = gate.load_reference("diagnose_n1000", 0)
    assert mc is not None and diag is not None
    assert gate.compare(mc, mc) == []

    def perturbed(ref, key, fn):
        out = {k: v.copy() for k, v in ref.items()}
        out[key] = fn(out[key])
        return gate.compare(out, ref)

    # deviations of the size the planned fast paths were measured to have pass
    assert perturbed(mc, "mc.mean", lambda v: v * (1 + 1e-12)) == []
    assert perturbed(diag, "diag.ks_statistic", lambda v: v + 4.2e-7) == []
    assert perturbed(diag, "diag.ks_p_value", lambda v: v + 0.01) == []
    assert perturbed(diag, "diag.qq_fitted", lambda v: v * (1 + 5e-5)) == []
    # wrong answers fail: transposed coefficients, another B, a small bias
    transposed = lambda v: v.reshape(-1, 2, 2, 2).transpose(0, 1, 3, 2).ravel()  # noqa: E731
    assert perturbed(mc, "mc.mean", transposed)
    b_swapped = lambda v: np.concatenate([v[8:16], v[:8], v[16:]])  # noqa: E731
    assert perturbed(mc, "mc.mean", b_swapped)
    assert perturbed(mc, "mc.rmse", lambda v: v * (1 + 1e-6))
    assert perturbed(diag, "diag.ks_p_value", lambda v: v + 0.03)
    assert perturbed(diag, "diag.coeffs", lambda v: v[::-1])
    # missing outputs and non-finite values fail
    assert gate.compare({k: v for k, v in mc.items() if k != "mc.rmse"}, mc)
    assert perturbed(mc, "mc.mean", lambda v: v * np.nan)


def test_every_output_has_a_tolerance():
    for name in workloads.WORKLOADS:
        for key in gate.load_reference(name, 0):
            gate.tolerance(key)


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    w = workloads.WORKLOADS["mc_paper"]
    with tempfile.TemporaryDirectory() as d:
        runner = run.Runner(w, w.small, w.setup(1, w.small, Path(d)), None)
        end_to_end = run.run_untraced(runner, 0.0, lambda: 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in end_to_end.items()
    }
    layers = {k: unit for k, (_, unit) in Tracer().layer_metrics(1).items()}
    layers.update({"trace.overhead_s": "s", "process.cpu_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
