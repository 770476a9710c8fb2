"""When scipy loads: with the first FE model, never with the package.

The point, calibration and growth paths use numpy alone, so importing the
package and its command line must not import scipy.  The check runs in a
fresh interpreter, where nothing else has imported it yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import maturesim

SRC = str(Path(maturesim.__file__).resolve().parent.parent)

PROBE = """
import json, sys
import maturesim, maturesim.cli, maturesim.calibrate, maturesim.matpoint, maturesim.fem
from maturesim.config import parse_config
from maturesim.fem import clamped_strip_model, solver

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

report = {"imported": scipy_modules(), "splu": callable(vars(solver).get("splu"))}
clamped_strip_model(parse_config({}).material, nx=2, ny=1, nz=1)
report["model"] = scipy_modules()
print(json.dumps(report))
"""


def test_scipy_loads_with_the_first_model():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["imported"] == []
    # the factorization the solver calls is there before scipy is
    assert report["splu"] is True
    assert "scipy.sparse.linalg" in report["model"]
