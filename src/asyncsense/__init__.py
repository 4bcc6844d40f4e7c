"""asyncsense: Fisher-information bounds and a MUSIC-based reference estimator
for passive sensing with asynchronous (randomly phase-offset) CSI snapshots."""

from .array_model import (ArrayGeometry, CsiBlock, GainDistribution, ScenarioParams,
                          draw_dynamic_gains, steering_vector, synthesize_csi)
from .bounds import (BoundReport, ChainCheckReport, ahrcrb_cgs, finite_t_hrcrb_cgs,
                     hrcrb_theta, rho_theta, verify_hrcrb_chain)
from .campaign import (CampaignResult, TrialResult, VerificationReport, run_campaign,
                       run_verification, sigma2_from_snr_db)
from .config import CampaignConfig, HsSpec, emit_config, parse_config
from .csvio import ResultRow, emit_csv, parse_results_csv, read_csi_csv, write_csi_csv, \
    write_matrix_csv
from .estimator import (EstimateResult, EstimatorConfig, MusicDiagnostics, beamspace_basis,
                        estimate_cgs, estimate_phase_offsets, music_aoa, run_estimator)
from .exceptions import (CollinearityError, ConfigError, DegenerateBoundError,
                         DegenerateProjectionError, EstimationStageError, SingularMatrixError)
from .fisher import (ConstraintBasis, FimMatrix, ParamLayout, ReorderedFim,
                     constrained_crb, constraint_basis, efim_theta_closed, efim_theta_schur,
                     fim_numeric_oracle, joint_fim, psi_block_inverse, reordered_blocks)
from .ofdm import (ReferenceSignal, SufficiencyReport, ls_estimate, make_reference_signal,
                   simulate_received, sufficiency_check)

__version__ = "0.1.0"
