"""The benchmark's tracer hooks uglm functions by name from outside the package.

A hook whose target was renamed or deleted makes its per-layer metric
silently absent, so every target must still resolve.
"""

import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

from uglm.graphdata import GraphInstance

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("hook", _tracer().HOOKS)
def test_hook_target_exists_and_is_callable(hook):
    module_name, attr = hook.split(".")
    target = getattr(importlib.import_module(f"uglm.{module_name}"), attr, None)
    assert callable(target), f"bench/tracer.py hooks uglm.{hook}, which is gone"


def test_graph_instance_has_edges_for_the_work_counter():
    # the tracer records len(args[0].edges) as the work of task_representation
    assert "edges" in {f.name for f in dataclasses.fields(GraphInstance)}
