"""README.md's Python example runs as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    # the example reads fixtures/ by a path relative to the repository root
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "((1, 0), (0, 1))\n"
