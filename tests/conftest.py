import ctypes
import glob

import numpy as np
import pytest

from lglg import parallel
from lglg.config import RunConfig
from lglg.synthetic import write_benchmark


def random_spd(rng, n, eig_range=(0.5, 2.0)):
    """SPD matrix with eigenvalues drawn uniformly from eig_range."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(*eig_range, size=n)
    return (q * lam) @ q.T


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def benchmark_dataset(tmp_path_factory):
    """Synthetic grating benchmark: (gallery_manifest, probe_manifest)."""
    root = tmp_path_factory.mktemp("bench")
    return write_benchmark(root, seed=0)


@pytest.fixture(scope="session")
def default_config():
    return RunConfig()


@pytest.fixture(scope="session")
def benchmark_gallery(benchmark_dataset, default_config):
    from lglg import pipeline

    gallery_manifest, _ = benchmark_dataset
    records = pipeline.load_manifest(gallery_manifest)
    return pipeline.enroll(records, default_config)


@pytest.fixture
def no_image_read(monkeypatch):
    """Fails the test if lglg reads an image in this process."""
    from lglg import pipeline

    def fail(path):
        raise AssertionError(f"{path} read before an error was reported")

    monkeypatch.setattr(pipeline, "read_pgm", fail)


@pytest.fixture
def blas_threads():
    """The thread-count getter of numpy's bundled OpenBLAS, looked up here
    and not through lglg, which keeps the setter only; skips the test where
    the library or the symbol is not found."""
    for lib in glob.glob(parallel._OPENBLAS_GLOB):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get
    pytest.skip("numpy has no bundled OpenBLAS")
