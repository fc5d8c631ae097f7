"""What each command imports: the first-order route runs without scipy.

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
loaded = [m for m in ("scipy", "scipy.optimize", "scipy.special", "bogofisher.oracle") if m in sys.modules]
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


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("first-order", []),
        ("scan", ["scipy", "bogofisher.oracle"]),
        ("oracle-compare", ["scipy", "bogofisher.oracle"]),
        ("optimize", ["scipy", "scipy.optimize", "scipy.special"]),
        ("scan --fit", ["scipy", "scipy.optimize", "scipy.special", "bogofisher.oracle"]),
    ],
)
def test_commands_import_scipy_only_when_they_use_it(command, loaded, docs):
    model, state, support, out = docs
    calls = {
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
    report = _fresh(_REPORT, json.dumps(calls))
    assert report == {"codes": [0] * len(calls), "loaded": loaded}


def test_every_public_name_resolves():
    report = _fresh(
        """
import json, sys
import bogofisher as bf

lazy = "bogofisher.oracle" not in sys.modules
resolved = [bf.generator_from_model, bf.scan_fock, bf.hamiltonian]
namespace = {}
exec("from bogofisher import *", namespace)
missing = [name for name in bf.__all__ if name not in namespace or not hasattr(bf, name)]
print(json.dumps({"lazy": lazy, "missing": missing,
                  "hamiltonian": bf.hamiltonian.__module__}))
"""
    )
    assert report == {"lazy": True, "missing": [], "hamiltonian": "bogofisher.oracle"}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bogofisher.no_such_name
