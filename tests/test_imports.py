"""Import cost: lglg loads no scipy module. scipy takes about half a second
to import and serves only the tests' oracles."""

import os
import subprocess
import sys

import lglg


def test_pipeline_imports_load_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import lglg, lglg.cli, lglg.pipeline, lglg.descriptor, lglg.synthetic\n"
        "from lglg.spd import riemannian_distance\n"
        "assert riemannian_distance(np.eye(3), 2.0 * np.eye(3)) > 0.0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lglg.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n", out.stdout
