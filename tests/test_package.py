import importlib
import pkgutil

import pytest

import stablevar as sv
from helpers import var2_model
from stablevar.errors import ValidationError

MODULES = ["stablevar"] + [
    f"stablevar.{info.name}" for info in pkgutil.iter_modules(sv.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


SERIES = sv.simulate(var2_model(1.6), 200, 0, 1)
COLUMN = SERIES.values[:, 0]
FITTED = sv.StableParams(1.6, 0.0, 1.0, 0.0)
B = 0.5
MODEL = var2_model(1.6)
# entry point -> (its call given the size, the size's name, a size within its bounds)
SIZED_CALLS = {
    "estimate_floc": (lambda v: sv.estimate_floc(SERIES, v, B), "order", 2),
    "estimate_ls": (lambda v: sv.estimate_ls(SERIES, v), "order", 2),
    "estimate_yw": (lambda v: sv.estimate_yw(SERIES, v), "order", 2),
    "lag_matrix_set": (lambda v: sv.lag_matrix_set(SERIES, v, B), "order", 2),
    "auto_floc": (lambda v: sv.auto_floc(COLUMN, v, B), "max_lag", 2),
    "null_band_lag": (lambda v: sv.auto_floc_null_band(FITTED, 50, v, B, 2), "max_lag", 2),
    "null_band_reps": (lambda v: sv.auto_floc_null_band(FITTED, 50, 2, B, v), "replicates", 2),
    "ks_test_stable": (lambda v: sv.ks_test_stable(COLUMN, v), "repetitions", 100),
    "qq_data": (lambda v: sv.qq_data(COLUMN, FITTED, v), "grid", 5),
    "psi_matrices": (lambda v: sv.psi_matrices(MODEL, v), "count", 1),
}


@pytest.mark.parametrize("entry", SIZED_CALLS)
@pytest.mark.parametrize("bad", [0.5, True])
def test_sizes_refuse_floats_and_bools(entry, bad):
    call, name, valid = SIZED_CALLS[entry]
    value = valid + bad if isinstance(bad, float) else bad
    with pytest.raises(ValidationError, match=f"{name} must be (an|a non-negative) integer"):
        call(value)


def test_array_holding_values_compare_by_identity_and_hash():
    # the generated __eq__ compared array fields with ==, whose truth value numpy refuses
    def make():
        series = sv.simulate(var2_model(1.6), 200, 50, 3)
        cfg = sv.ExperimentConfig(var2_model(1.6), 100, (0.25,), 2, 0)
        pipeline = sv.run_pipeline(series, 2, 0.25, ks_repetitions=100, max_lag=2,
                                   band_replicates=5)
        column = pipeline.columns[0]
        return [series, var2_model(1.6), sv.estimate_ls(series, 2), sv.run_monte_carlo(cfg),
                column, pipeline, column.auto_floc]

    for a, b in zip(make(), make()):
        assert a == a and not (a == b) and a != b, type(a).__name__
        assert hash(a) == hash(a) and len({a, b}) == 2, type(a).__name__
