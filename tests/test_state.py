"""Guard: a pipeline run leaves the module-level containers of ptbundle as
they were at import.

State that outlives a call (a module-level cache, say) makes one call's
cost and memory depend on the calls before it.  The check runs in a fresh
interpreter, so the snapshot is taken right after import whatever the
other tests have run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil
import ptbundle

modules = [importlib.import_module("ptbundle." + info.name)
           for info in pkgutil.iter_modules(ptbundle.__path__)]

def snapshot():
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, dict):
                out[module.__name__, name] = {k: id(v) for k, v in value.items()}
            elif isinstance(value, list):
                out[module.__name__, name] = [id(v) for v in value]
            elif isinstance(value, set):
                out[module.__name__, name] = set(value)
    return out

before = snapshot()
from ptbundle.certify import certify
certify("LLRR")
after = snapshot()
print(len(before), sorted(".".join(key) for key in before if after[key] != before[key]))
"""


def test_certify_leaves_module_containers_unchanged():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    count, changed = done.stdout.split(" ", 1)
    assert int(count) > 0
    assert changed.strip() == "[]"
