"""Statistical compressive sensing of Gaussian mixture signal models.

Batch and adaptive sensing design, Wiener/MAP reconstruction, sequential
class detection, and an experiment harness with a CLI.
"""

from .adaptive import (
    AcquisitionState,
    AscentOptions,
    PosteriorMatrices,
    ProjectedCovarianceError,
    design_classification_block,
    design_reconstruction_block,
    posterior_matrices,
    separability_gradient,
    separability_measure,
)
from .design import (
    SensingMatrix,
    average_basis,
    eigen_sensing,
    procrustes_rotation,
    random_orthonormal,
    rip_ab,
)
from .inference import (
    ReconstructionResult,
    ShtOutcome,
    map_classify,
    map_em,
    map_em_objective,
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
    spd_eigendecompose,
)
from .patches import patch_extract, psnr, read_pgm, write_pgm
from .protocol import (
    ExperimentReport,
    ProtocolConfig,
    run_two_step,
    sigma2_for_snr_db,
)
from .serialize import load_model, read_matrix, save_model, write_matrix
from .synthetic import (
    BD_BUCKETS,
    bhattacharyya_distance,
    synth_covariance,
    synth_covariance_pair,
    synth_model_pair,
)
from .train import (
    init_gmm_by_orientation,
    supervised_gmm,
    train_gmm,
    train_gmm_coadapt,
)

__all__ = [
    "AcquisitionState",
    "AscentOptions",
    "BD_BUCKETS",
    "ExperimentReport",
    "GaussianComponent",
    "GmmModel",
    "PosteriorMatrices",
    "ProjectedCovarianceError",
    "ProtocolConfig",
    "ReconstructionResult",
    "SensingMatrix",
    "ShtOutcome",
    "SignalBatch",
    "average_basis",
    "bhattacharyya_distance",
    "design_classification_block",
    "design_reconstruction_block",
    "eigen_sensing",
    "init_gmm_by_orientation",
    "load_model",
    "m_step_update",
    "map_classify",
    "map_em",
    "map_em_objective",
    "map_reconstruct",
    "patch_extract",
    "posterior_matrices",
    "procrustes_rotation",
    "psnr",
    "random_orthonormal",
    "read_matrix",
    "read_pgm",
    "rip_ab",
    "run_two_step",
    "sample_signals",
    "save_model",
    "separability_gradient",
    "separability_measure",
    "sht_run",
    "sigma2_for_snr_db",
    "spd_eigendecompose",
    "supervised_gmm",
    "synth_covariance",
    "synth_covariance_pair",
    "synth_model_pair",
    "train_gmm",
    "train_gmm_coadapt",
    "wiener_coefficients",
    "write_matrix",
    "write_pgm",
]

__version__ = "0.1.0"
