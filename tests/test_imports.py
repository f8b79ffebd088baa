"""Importing the package loads no heavy scipy submodule.

``scipy.fft``, ``scipy.integrate`` and ``scipy.special`` each add several MB
of resident memory to every process that imports ``scatterlab``; the modules
that need them import them inside the function that uses them.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAVY = ("scipy.fft", "scipy.integrate", "scipy.special")


def test_import_loads_no_heavy_scipy_submodule():
    code = f"import sys, scatterlab; print([m for m in {HEAVY!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
