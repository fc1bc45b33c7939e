"""Verification of quantum discord from homodyne records.

For bipartite Gaussian states, discord vanishes exactly when the
cross-covariance block is zero, and any nonzero block shows up as a
separation between the peaks of Bob's conditional marginals when records
are split on the sign of Alice's outcome.  This package provides the
Gaussian state algebra, exact marginal forms, a deterministic record
sampler, the statistical verdicts, and truncated Fock-space numerics for
the non-Gaussian edge cases where peak separation and discord part ways.
"""

__version__ = "0.1.0"

from .errors import (DegenerateSplitError, EmptySideError,
                     InsufficientDataError, NumericError, ParseError,
                     ToolkitError, TruncationError, ValidationError)
from .states import (GaussianBipartiteState, SingleModeState,
                     ValidationReport, apply_beam_splitter,
                     beam_splitter_matrix, c_block_is_zero, modulated_beam,
                     rotate_local, rotation_matrix, split_balanced,
                     state_from_json, state_to_json, symplectic_form, tensor,
                     vacuum_bipartite, vacuum_single, validate_covariance,
                     wigner_density)
from .marginals import (ArcsineComponent, CoherentPoint, MarginalForm,
                        NuTable, PMixtureState, ThermalComponent,
                        analytic_peak_separation,
                        conditional_marginal_density, density_curve_to_csv,
                        density_curve_to_json, input_marginal_D1,
                        joint_marginal_density, joint_marginal_form,
                        marginal_b_density, mixture_from_json,
                        mixture_to_json, nu_table, output_joint_density,
                        output_wigner_from_P, side_probability)
from .sampler import (AsyncSine, GaussianModulation, RecordSet,
                      SimulationConfig, SwitchedNoise, SwitchedPhase,
                      concat_records, read_records, sample_gaussian,
                      sample_scheme, write_records)
from .verifier import (ChiSquareResult, DiscordVerdict, Histogram,
                       MixtureVerdict, PeakEstimate, chi_square_two_sample,
                       estimate_density, estimate_peak, separation_statistic,
                       split_by_threshold, sweep_modulation, verdict_gaussian,
                       verdict_mixture)
from .fock import (FockDensityMatrix, QuadratureGrid, bipartite_from_parts,
                   build_ce_hidden_discord, build_ce_zero_discord,
                   coherent_fock, commutator_norm, conditional_b_given_sign,
                   default_grid, density_from_vector, fock_state_from_json,
                   fock_state_to_json, grid_moments, grid_peak,
                   homodyne_marginal_fock, number_mean,
                   oscillator_eigenfunctions, sign_projectors,
                   squeezed_vacuum_fock, superposition_basis, thermal_fock,
                   verify_classical_on_b)

__all__ = [name for name in dir() if not name.startswith("_")]
