"""The top-level API: the path model, the solver entry points with their
return types, and the pwl module."""
from __future__ import annotations

import importlib
import importlib.util
import os

import evacregret

PUBLIC_API = {
    # the path model
    "PathInstance",
    "Scenario",
    "Point",
    "PathModelError",
    "parse_instance",
    "parse_scenario",
    "validate",
    # the solver entry points and their return types
    "theta",
    "EvacResult",
    "optimal_sink",
    "OptSink",
    "regret",
    "RegretSolver",
    "RegretReport",
    "Witness",
    "max_regret",
    "min_max_regret",
    # exact piecewise-linear algebra
    "pwl",
}
# what perfbench/worker.py calls on the package
WORKER_NAMES = {"RegretSolver", "parse_instance", "validate", "parse_scenario", "regret"}
# the names pwl defines without a leading underscore
PWL_API = {
    "PwlError",
    "Line",
    "PwlFunction",
    "from_points",
    "constant",
    "canonical",
    "evaluate",
    "restrict",
    "upper_envelope",
    "add",
    "add_const",
    "shift_arg",
    "inverse",
    "merge_max",
    "merge_min_total",
    "max_difference_all",
}
# PwlFunction's methods and properties besides its two fields
PWL_FUNCTION_API = {"lo", "hi", "size", "slopes", "is_good", "is_positive"}


def test_public_api_is_pinned():
    assert len(evacregret.__all__) == len(set(evacregret.__all__))
    assert set(evacregret.__all__) == PUBLIC_API
    assert WORKER_NAMES <= PUBLIC_API
    for name in evacregret.__all__:
        assert getattr(evacregret, name) is not None


def test_pwl_api_is_pinned():
    pwl = evacregret.pwl
    defined = {
        name
        for name, obj in vars(pwl).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == pwl.__name__
    }
    assert defined == PWL_API
    members = {name for name in dir(pwl.PwlFunction) if not name.startswith("_")}
    assert members == PWL_FUNCTION_API


def test_traced_names_resolve():
    """Every function the benchmark's tracer wraps still exists in its module;
    the tracer would otherwise report zero calls for it without failing."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, *_ in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(importlib.import_module(f"evacregret.{module}"), attr))
    for module, cls, method, *_ in spans.SPANNED_METHODS:
        owner = getattr(importlib.import_module(f"evacregret.{module}"), cls)
        assert callable(getattr(owner, method))
