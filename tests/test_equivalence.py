"""Smoke run of the equivalence panel (``tools/equivalence.py``) on this tree."""

import copy
import importlib.util
import subprocess
import sys
from pathlib import Path

from sbm_miss.sampling import DESIGNS

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "equivalence.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_grid_runs_every_design_and_agrees_across_threads():
    proc = subprocess.run([sys.executable, str(TOOL), "--grid", "tiny"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for tag in DESIGNS:
        for directed in ("undirected", "directed"):
            assert any(line.startswith(f"same {tag} {directed} seed=0 use_cov=True") for line in lines), tag
    assert {line.split(":")[0] for line in lines} >= {"same cli block-node", "same cli covar-node"}
    assert lines[-1].endswith("0 differ; CLI outputs equal across --threads 1 and 2: True")


def test_report_flags_a_moved_fit():
    tool = load_tool()
    base = {"dyad case": {"mask": "m", "fit": "a",
                          "models": [{"alpha": [0.5, 0.5], "pi/gamma": [0.2], "beta": [], "psi": [0.6],
                                      "icl": [10.0], "tau": [0.9, 0.1], "bound": [-5.0], "rows": 4}]},
            "sweep case": {"psi": "p"}}
    tree = copy.deepcopy(base)
    assert not any(line.startswith("DIFF") for line in tool._compare(base, tree))
    tree["dyad case"]["fit"] = "b"
    tree["dyad case"]["models"][0].update(icl=[11.0], rows=5)
    tree["sweep case"]["psi"] = "q"
    report = dict(line.split(":", 1) for line in tool._compare(base, tree))
    assert "fit b (base a)" in report["DIFF dyad case"]
    assert "dicl 9.1e-02" in report["DIFF dyad case"] and "rows 5 (base 4)" in report["DIFF dyad case"]
    assert "dpsi 0.0e+00" in report["DIFF dyad case"]
    assert report["DIFF sweep case"].strip() == "psi q (base p)"
    # the split: a fit that moved at rounding level with equal rows, and the moved cases by name
    base["round case"] = copy.deepcopy(base["dyad case"])
    tree["round case"] = copy.deepcopy(base["dyad case"])
    tree["round case"]["fit"] = "c"
    tree["round case"]["models"][0]["alpha"] = [0.5 + 1e-12, 0.5 - 1e-12]
    assert tool._split(base, tree) == ("of 3 differing: 1 at rounding level (every field below 1e-10 relative, "
                                       "equal EM rows), 2 moved: dyad case; sweep case")
    tree["round case"]["models"][0]["rows"] = 5   # equal numbers, but not equal rows
    assert tool._split(base, tree).endswith("0 at rounding level (every field below 1e-10 relative, "
                                            "equal EM rows), 3 moved: dyad case; round case; sweep case")
    assert tool._split(base, base).endswith("0 moved: -")
    # a fit whose tau alone moved: the report names the field; tau's change is relative to 1,
    # so an entry near 0 that moves at rounding level stays at rounding level
    base = {"tau case": copy.deepcopy(base["dyad case"])}
    tree = copy.deepcopy(base)
    tree["tau case"]["fit"] = "d"
    tree["tau case"]["models"][0]["tau"] = [0.7, 0.3]
    [line] = tool._compare(base, tree)
    assert line.startswith("DIFF tau case:") and "dtau 2.0e-01" in line
    assert all(f"d{f} 0.0e+00" in line for f in tool.FIELDS if f != "tau")
    assert tool._split(base, tree).endswith("0 at rounding level (every field below 1e-10 relative, "
                                            "equal EM rows), 1 moved: tau case")
    base["tau case"]["models"][0]["tau"] = [1.0, 1e-30]
    tree["tau case"]["models"][0]["tau"] = [1.0, 2e-30]
    assert "dtau 1.0e-30" in tool._compare(base, tree)[0]
    assert tool._split(base, tree).endswith("1 at rounding level (every field below 1e-10 relative, "
                                            "equal EM rows), 0 moved: -")
