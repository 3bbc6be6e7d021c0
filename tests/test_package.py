import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmmsense

MODULES = [
    "gmmsense",
    "gmmsense.adaptive",
    "gmmsense.cli",
    "gmmsense.design",
    "gmmsense.inference",
    "gmmsense.model",
    "gmmsense.patches",
    "gmmsense.protocol",
    "gmmsense.serialize",
    "gmmsense.synthetic",
    "gmmsense.train",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_every_package_name_is_exported_by_its_module():
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    module_exports = {n for m in modules for n in getattr(m, "__all__", [])}
    assert sorted(set(gmmsense.__all__) - module_exports) == []


# The public surface, pinned: a name is added or dropped on purpose.
PUBLIC = [
    "AcquisitionState", "AscentOptions", "ExperimentReport", "GaussianComponent",
    "GmmModel", "ProjectedCovarianceError", "ProtocolConfig", "SensingMatrix",
    "ShtOutcome", "SignalBatch", "design_classification_block",
    "design_reconstruction_block", "eigen_sensing", "load_model", "m_step_update",
    "map_classify", "map_em", "map_reconstruct", "patch_extract", "posterior_matrices",
    "random_orthonormal", "read_matrix", "read_pgm", "rip_ab", "run_two_step",
    "sample_signals", "save_model", "separability_measure", "sht_run",
    "sigma2_for_snr_db", "supervised_gmm", "synth_model_pair", "train_gmm",
    "train_gmm_coadapt", "wiener_coefficients", "write_matrix",
]


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 36
    assert sorted(gmmsense.__all__) == PUBLIC


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the library must import without it.
    src = Path(gmmsense.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, gmmsense, gmmsense.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
