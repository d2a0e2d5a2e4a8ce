"""Import cost: lglg loads no scipy module, and the CLI no multiprocessing
module. scipy takes about half a second to import and serves only the
tests' oracles; multiprocessing serves only ``--jobs`` pools. And the names
the benchmark under ``perfbench/`` looks up are where it looks for them."""

import importlib
import inspect
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


#: The names the benchmark under ``perfbench/`` looks up or wraps, by module.
BENCHMARK_NAMES = {
    "descriptor": ["preprocess_chain", "build_bank", "decompose", "estimate_gaussian",
                   "block_feature"],
    "pipeline": ["image_feature", "read_pgm", "extract_feature", "fit", "project", "zscore",
                 "enroll", "identify", "evaluate", "save_model", "load_model", "load_manifest"],
    "cli": ["cmd_sweep", "main"],
}

#: Parameters whose arguments the benchmark's span notes read, by function.
BENCHMARK_PARAMETERS = {
    "extract_feature": ["path"],
    "save_model": ["path"],
    "fit": ["k_requested"],
    "enroll": ["records", "config", "jobs"],
}


def test_names_the_benchmark_looks_up():
    for module, names in BENCHMARK_NAMES.items():
        mod = importlib.import_module(f"lglg.{module}")
        assert [n for n in names if not callable(getattr(mod, n, None))] == [], module
    for name, params in BENCHMARK_PARAMETERS.items():
        signature = inspect.signature(getattr(importlib.import_module("lglg.pipeline"), name))
        assert set(params) <= set(signature.parameters), name
