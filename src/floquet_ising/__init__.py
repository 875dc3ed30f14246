"""Nonunitary Floquet transverse-field Ising chain toolkit."""

__version__ = "0.1.0"

from .params import (BoundaryCondition, LatticeSpec, ModelParams, PhaseLabel,
                     ProductState, QuenchConfig, SubsystemSpec, TeePartition,
                     lattice, make_params, named_state, parse_config,
                     model_from_config, phase_label_from_params,
                     preferred_sector, PI4)
from .spectral import (DispersionPoint, EdgeModeRecord, MetricOperator,
                       RealModeCensus, SpectrumReport, TransferMatrix,
                       allowed_momenta, build_kick_forms,
                       build_transfer_matrix, classify_phase,
                       classify_phase_from_spectrum, count_real_modes,
                       detect_edge_modes, dispersion_continuous,
                       floquet_dispersion, pseudo_hermiticity_certificate,
                       quasienergies_from_transfer,
                       spectrum_conjugation_defect)
from .gaussian import (CorrelationMatrix, EntropyTrace, GaussianFrame,
                       correlation_from_frame, entropy_trace, evolve_continuous,
                       continuous_hamiltonian, initial_frame, period_frames,
                       period_map, run_to_steady_state, stroboscopic_run)
from .entanglement import (CollapseResult, EntropyReport, ScalingFit,
                           TeeResult, fit_scaling, mutual_information,
                           renyi_entropy, subsystem_entropy, tee,
                           tee_collapse)
from .cft import (CftCurve, CftParams, ComparisonReport, compare_to_numerics,
                  entropy_curve, tr_rho_n)
