"""Import cost: the pipeline modules load no scipy module. scipy takes about
half a second to import and serves only ``spd.riemannian_distance`` and the
tests' oracles."""

import os
import subprocess
import sys

import lglg


def test_pipeline_imports_load_no_scipy():
    code = (
        "import sys\n"
        "import lglg, lglg.cli, lglg.pipeline, lglg.descriptor, lglg.synthetic\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lglg.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n", out.stdout
