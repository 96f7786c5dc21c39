"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_the_readme_python_examples_run_in_one_namespace(capsys):
    blocks = _python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    # the API example ends by printing a report table
    assert capsys.readouterr().out.startswith("PG(2,3)")
