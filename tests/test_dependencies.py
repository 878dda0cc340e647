"""The package imports with the standard library alone."""
import subprocess
import sys
from pathlib import Path

import dickson


def test_import_loads_no_numpy():
    src = str(Path(dickson.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import dickson; "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
