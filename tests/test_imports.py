"""What each command imports: no command imports scipy.

Each check runs in a fresh interpreter, because the test session itself
has long since imported scipy and the oracle.
"""

import json

import pytest

import bogofisher

from helpers import run_python

_REPORT = """
import json, sys
from bogofisher.cli import cli_main

codes = [cli_main(argv) for argv in json.loads(sys.argv[1])]
watched = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.special", "scipy.sparse.linalg",
           "bogofisher.oracle")
loaded = [m for m in watched if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _fresh(script, *args):
    code, out, err = run_python(["-c", script, *args])
    assert code == 0, err
    return json.loads(out.splitlines()[-1])


@pytest.fixture
def docs(tmp_path):
    model = tmp_path / "tms.json"
    model.write_text(json.dumps(
        {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 2}
    ))
    state = tmp_path / "s11.json"
    state.write_text(json.dumps([{"occ": [1, 1], "re": 1.0, "im": 0.0}]))
    support = tmp_path / "support.json"
    support.write_text(json.dumps([[1, 1], [2, 2]]))
    return str(model), str(state), str(support), str(tmp_path / "scan.csv")


# The watched modules each command leaves loaded.
_LOADED = {
    "first-order": [],
    "scan": ["bogofisher.oracle"],
    "oracle-compare": ["bogofisher.oracle"],
    "optimize": [],
    "scan --fit": ["bogofisher.oracle"],
}


@pytest.mark.parametrize("command, loaded", _LOADED.items())
def test_commands_import_scipy_only_when_they_use_it(command, loaded, docs):
    calls = _calls(command, *docs)
    report = _fresh(_REPORT, json.dumps(calls))
    assert report == {"codes": [0] * len(calls), "loaded": loaded}


def test_every_command_runs_where_scipy_cannot_be_imported(docs):
    # A None entry in sys.modules makes every import of scipy raise ImportError.
    script = "import sys\nsys.modules['scipy'] = None\n" + _REPORT
    calls = [argv for command in _LOADED for argv in _calls(command, *docs)]
    assert _fresh(script, json.dumps(calls))["codes"] == [0] * len(calls)


def _calls(command, model, state, support, out):
    """The command lines run for one command of ``_LOADED``."""
    return {
        "first-order": [
            ["validate", model],
            ["qfi", model, "--state", state],
            ["qfi", model, "--state", state, "--keep", "0"],
            ["named", model, "--n", "2"],
        ],
        "scan": [["scan", model, "--n", "0..1", "--pair-with", "1"]],
        "oracle-compare": [["oracle-compare", model, "--state", state]],
        "optimize": [["optimize", model, "--support", support, "--avg-n", "3",
                      "--restarts", "1"]],
        "scan --fit": [["scan", model, "--n", "1..4", "--out", out, "--fit"]],
    }[command]


def test_every_public_name_resolves():
    report = _fresh(
        """
import json, sys
import bogofisher as bf

lazy = "bogofisher.oracle" not in sys.modules
resolved = [bf.generator_from_model, bf.scan_fock, bf.derivative_states]
namespace = {}
exec("from bogofisher import *", namespace)
missing = [name for name in bf.__all__ if name not in namespace or not hasattr(bf, name)]
print(json.dumps({"lazy": lazy, "missing": missing,
                  "derivative_states": bf.derivative_states.__module__}))
"""
    )
    assert report == {"lazy": True, "missing": [], "derivative_states": "bogofisher.oracle"}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bogofisher.no_such_name
