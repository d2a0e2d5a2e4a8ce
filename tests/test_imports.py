"""Import cost: lglg loads no scipy module, and the CLI no multiprocessing
module. scipy takes about half a second to import and serves only the
tests' oracles; multiprocessing serves only ``--jobs`` pools."""

import os
import subprocess
import sys

import lglg


def loaded_modules(code, prefix):
    """Sorted names of the ``prefix`` package's modules loaded after running
    ``code`` in a fresh interpreter."""
    code += (
        f"\nimport sys\nprint(sorted(m for m in sys.modules if m == {prefix!r} "
        f"or m.startswith({prefix + '.'!r})))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lglg.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_pipeline_imports_load_no_scipy():
    code = (
        "import numpy as np\n"
        "import lglg, lglg.cli, lglg.pipeline, lglg.descriptor, lglg.synthetic\n"
        "from lglg.spd import riemannian_distance\n"
        "assert riemannian_distance(np.eye(3), 2.0 * np.eye(3)) > 0.0\n"
    )
    out = loaded_modules(code, "scipy")
    assert out == "[]\n", out


def test_cli_import_loads_no_multiprocessing():
    out = loaded_modules("import lglg.cli\n", "multiprocessing")
    assert out == "[]\n", out
