"""The README's Library block runs as written and prints what its comments say.

The block runs in a fresh interpreter, so a public name that is renamed or
deleted breaks this test instead of leaving the README stale.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_block() -> str:
    """The first python code block after the README's Library heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_prints(code: str) -> list[str]:
    """The `# comment` of each print line, in order."""
    return [re.search(r"#\s*(.*?)\s*$", line).group(1)
            for line in code.splitlines() if line.startswith("print(")]


def test_library_block_prints_its_comments():
    code = library_block()
    expected = expected_prints(code)
    assert expected
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.splitlines() == expected
