"""README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})
    p_success, overlap = capsys.readouterr().out.split()
    assert abs(float(p_success) - 7 / 8) < 1e-12
    assert abs(float(overlap) - 1.0) < 1e-12
