"""The benchmark's tracer wraps program functions by dotted name; every name
it lists must exist, or `perfbench/run.py --trace 1` fails at install()."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for target, _ in module.SPANS + module.COUNTERS]


@pytest.mark.parametrize("target", _tracer_targets())
def test_traced_target_resolves(target):
    # the lookup install() makes: module, then classes, then the owner's own dict
    mod_name, *path = target.split(".")
    owner = importlib.import_module(f"pmicert.{mod_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    assert path[-1] in vars(owner), f"{target} is gone"
    assert callable(vars(owner)[path[-1]])
