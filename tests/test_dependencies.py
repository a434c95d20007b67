"""The package runs on numpy alone: scipy and networkx stay optional.

No algorithm of the library needs scipy, and networkx is only reached
through :mod:`repro.graphs.nx_interop`, which callers import on demand.
A module-level import of either would make ``import repro`` fail on a
numpy-only install.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_import_without_scipy_or_networkx():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['networkx'] = None\n"
        "import repro, repro.cli, repro.fleet, repro.serve, repro.simulation\n"
        "import repro.otis.sweep\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "             if name.split('.')[0] in ('scipy', 'networkx')\n"
        "             and module is not None))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
