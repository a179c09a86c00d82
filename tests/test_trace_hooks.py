"""The benchmark's trace hooks still name callables that planarcert has.

``perfbench/spans.py`` traces a run by replacing module-level names such as
``planarcert.pls.spanning_tree_dfs``.  A refactor that drops or renames one
of them would break ``perfbench/run.py --trace 1``; this test fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_calls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_CALLS


def test_every_wrapped_name_resolves_in_planarcert():
    calls = _layer_calls()
    assert calls
    for module_name, attr, _span in calls:
        assert module_name.startswith("planarcert.")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
