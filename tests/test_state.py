"""Guard: a pipeline run leaves the module-level containers of ptbundle, and
the command-line parser every call shares, as they were at import.

State that outlives a call (a module-level cache, say) makes one call's
cost and memory depend on the calls before it.  The check runs in a fresh
interpreter, so the snapshot is taken right after import whatever the
other tests have run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = """
import contextlib, copy, importlib, io, json, pkgutil, sys
import ptbundle

modules = [importlib.import_module("ptbundle." + info.name)
           for info in pkgutil.iter_modules(ptbundle.__path__)]
from ptbundle import cli

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

def parser_state():
    (sub,) = [a for a in cli._PARSER._actions if a.dest == "command"]
    out = {}
    for name, parser in {"ptbundle": cli._PARSER, **sub.choices}.items():
        actions = [(a.dest, copy.deepcopy(a.default),
                    {k: id(v) for k, v in a.choices.items()}
                    if isinstance(a.choices, dict) else copy.deepcopy(a.choices))
                   for a in parser._actions]
        out[name] = (copy.deepcopy(parser._defaults), actions)
    return out

before, parsers_before = snapshot(), parser_state()
from ptbundle.certify import certify
certify("LLRR")
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.run(argv))
after, parsers_after = snapshot(), parser_state()
print(json.dumps({
    "containers": len(before),
    "changed": sorted(".".join(key) for key in before if after[key] != before[key]),
    "parsers": sorted(parsers_before),
    "parsers_changed": sorted(name for name in parsers_before
                              if parsers_after[name] != parsers_before[name]),
    "codes": codes,
}))
"""

# One argv per subcommand, one that exits 2, and the top-level help.
ARGVS = [
    ["certify", "--format", "json", "--", "LR"],
    ["holonomy", "--tol-null", "1e-9", "LR"],
    ["trace-solve", "--format", "json", "LR"],
    ["action", "--reps", "sl4", "LR"],
    ["alexander", str(ROOT / "presentations" / "trefoil_heusener.json")],
    ["certify", "--format", "xml", "LR"],
    ["-h"],
]


@pytest.fixture(scope="module")
def state():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(ARGVS)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_certify_leaves_module_containers_unchanged(state):
    assert state["containers"] > 0
    assert state["changed"] == []


def test_cli_runs_leave_the_shared_parser_as_imported(state):
    assert state["codes"] == [0, 0, 0, 0, 0, 2, 0]
    assert state["parsers"] == sorted(["ptbundle", "certify", "holonomy", "trace-solve",
                                       "action", "alexander"])
    assert state["parsers_changed"] == []
