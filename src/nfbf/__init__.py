"""Near-field multiuser MIMO beamforming simulation library."""

from .channel import (
    PathComponent,
    Scenario,
    UserChannel,
    make_user_channel,
    random_scenario,
)
from .codebook import (
    AuxiliaryGrid,
    CodewordIndex,
    PolarCodebook,
    approximate_channel_matrices,
    auxiliary_points,
    beam_sweep,
    build_codebook,
    codebook_grid,
    export_codebook_csv,
)
from .geometry import (
    ArrayConfig,
    PolarCoord,
    element_distances,
    farfield_steering,
    rayleigh_distance,
    steering_matrix,
)
from .harness import (
    BeamPatternResult,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    run_beam_pattern,
    run_experiment,
    spec_from_dict,
)
from .hbf import (
    HybridBeamformer,
    SingularEffectiveChannelError,
    WMMSEBatchReport,
    WMMSEReport,
    analog_beam_steering,
    effective_channel,
    hbf_wmmse,
    hbf_zf,
)
from .metrics import (
    BeamformerMatrix,
    PowerModel,
    beam_pattern_grid,
    noise_from_snr,
    sum_rate,
    total_power,
)
from .mm import (
    MMConfig,
    MMReport,
    aobf_imperfect_csi,
    aobf_perfect_csi,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "PathComponent",
    "Scenario",
    "UserChannel",
    "make_user_channel",
    "random_scenario",
    "AuxiliaryGrid",
    "CodewordIndex",
    "PolarCodebook",
    "approximate_channel_matrices",
    "auxiliary_points",
    "beam_sweep",
    "build_codebook",
    "codebook_grid",
    "export_codebook_csv",
    "ArrayConfig",
    "PolarCoord",
    "element_distances",
    "farfield_steering",
    "rayleigh_distance",
    "steering_matrix",
    "BeamPatternResult",
    "ExperimentSpec",
    "ResultRow",
    "ResultTable",
    "run_beam_pattern",
    "run_experiment",
    "spec_from_dict",
    "HybridBeamformer",
    "SingularEffectiveChannelError",
    "WMMSEBatchReport",
    "WMMSEReport",
    "analog_beam_steering",
    "effective_channel",
    "hbf_wmmse",
    "hbf_zf",
    "BeamformerMatrix",
    "PowerModel",
    "beam_pattern_grid",
    "noise_from_snr",
    "sum_rate",
    "total_power",
    "MMConfig",
    "MMReport",
    "aobf_imperfect_csi",
    "aobf_perfect_csi",
    "run_selftest",
    "__version__",
]
