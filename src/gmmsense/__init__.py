"""Statistical compressive sensing of Gaussian mixture signal models.

Batch and adaptive sensing design, Wiener/MAP reconstruction, sequential
class detection, and an experiment harness with a CLI.
"""

from .adaptive import (
    AcquisitionState,
    AscentOptions,
    ProjectedCovarianceError,
    design_classification_block,
    design_reconstruction_block,
    posterior_matrices,
    separability_measure,
)
from .design import (
    SensingMatrix,
    eigen_sensing,
    random_orthonormal,
    rip_ab,
)
from .inference import (
    ShtOutcome,
    map_classify,
    map_em,
    map_reconstruct,
    sht_run,
    wiener_coefficients,
)
from .model import (
    GaussianComponent,
    GmmModel,
    SignalBatch,
    m_step_update,
    sample_signals,
)
from .patches import patch_extract, read_pgm
from .protocol import (
    ExperimentReport,
    ProtocolConfig,
    run_two_step,
    sigma2_for_snr_db,
)
from .serialize import load_model, read_matrix, save_model, write_matrix
from .synthetic import synth_model_pair
from .train import supervised_gmm, train_gmm, train_gmm_coadapt

__all__ = [
    "AcquisitionState",
    "AscentOptions",
    "ExperimentReport",
    "GaussianComponent",
    "GmmModel",
    "ProjectedCovarianceError",
    "ProtocolConfig",
    "SensingMatrix",
    "ShtOutcome",
    "SignalBatch",
    "design_classification_block",
    "design_reconstruction_block",
    "eigen_sensing",
    "load_model",
    "m_step_update",
    "map_classify",
    "map_em",
    "map_reconstruct",
    "patch_extract",
    "posterior_matrices",
    "random_orthonormal",
    "read_matrix",
    "read_pgm",
    "rip_ab",
    "run_two_step",
    "sample_signals",
    "save_model",
    "separability_measure",
    "sht_run",
    "sigma2_for_snr_db",
    "supervised_gmm",
    "synth_model_pair",
    "train_gmm",
    "train_gmm_coadapt",
    "wiener_coefficients",
    "write_matrix",
]

__version__ = "0.1.0"
