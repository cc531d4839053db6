"""Run the ``zxcalc`` CLI, or any Python code, in a child process.

The child imports this checkout's ``src`` ahead of anything on its
``PYTHONPATH``, so the subprocess tests pass from a plain checkout with no
install.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python_process(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=600)


def run_cli_process(*argv: str) -> subprocess.CompletedProcess:
    return run_python_process("-m", "zxcalc.cli", *argv)
