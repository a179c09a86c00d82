"""README's library quick start runs as printed, so its bounds cannot drift."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    found = re.search(r"^## Library quick start\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert found, "README has no python block under 'Library quick start'"
    return found.group(1)


def test_library_quick_start_runs():
    code = _quick_start()
    # The block's own asserts are what it promises: honest acceptance, the
    # size bound and no accepted forgery.
    assert "report.stats.max_bits" in code and "total_accepts == 0" in code
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["summary"].total_accepts == 0
