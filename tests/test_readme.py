"""README's library and CLI quick starts run as written."""

import re
from pathlib import Path

from fermiconv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})
    p_success, overlap = capsys.readouterr().out.split()
    assert float(p_success) == 7 / 8
    assert abs(float(overlap) - 1.0) < 1e-12


def test_cli_quick_start_runs(capsys, monkeypatch, tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [ln.split() for ln in block.splitlines() if ln.startswith("fermiconv ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if "--verify" in argv:
            assert out.splitlines()[-1] == "fidelity 1.000000", argv
