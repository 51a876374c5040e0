import os
import subprocess
import sys
from pathlib import Path

import hyperslice


def test_import_loads_numpy_alone():
    # a fresh interpreter, so modules the test suite imported do not count;
    # the panel rule is a literal table, so numpy.polynomial stays unloaded,
    # and the thread pool's module loads with the first threaded call
    env = dict(os.environ, PYTHONPATH=str(Path(hyperslice.__file__).parents[1]))
    code = ("import sys, hyperslice; print(' '.join(m for m in "
            "('numpy', 'numpy.polynomial', 'scipy', 'mpmath', 'concurrent.futures') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["numpy"]


def test_every_export_exists():
    for name in hyperslice.__all__:
        getattr(hyperslice, name)
