"""Start-up cost: importing bernkit loads no standard-library module that
its arithmetic does not use.

Every bernkit command runs in a fresh interpreter, so what the import pulls
in is paid once per command.  This file uses the standard library only, so
it also runs without pytest, from the repository root:

    PYTHONPATH=src:tests python -c "import test_startup as t; \\
        t.test_import_loads_no_heavy_module()"
"""

import os
import subprocess
import sys

import bernkit

#: modules that cost start-up time and that no bernkit computation needs
HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "json",
         "argparse", "gettext")


def test_import_loads_no_heavy_module():
    # -S skips `site`, whose hooks may load typing on their own; the child
    # imports the same bernkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(bernkit.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bernkit.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
