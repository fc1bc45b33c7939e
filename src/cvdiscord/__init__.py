"""Verification of quantum discord from homodyne records.

For bipartite Gaussian states, discord vanishes exactly when the
cross-covariance block is zero, and any nonzero block shows up as a
separation between the peaks of Bob's conditional marginals when records
are split on the sign of Alice's outcome.  This package provides the
Gaussian state algebra, exact marginal forms, a deterministic record
sampler, the statistical verdicts, and truncated Fock-space numerics for
the non-Gaussian edge cases where peak separation and discord part ways.
"""

from types import ModuleType as _Module

__version__ = "0.2.0"

from .errors import (DegenerateSplitError, EmptySideError,
                     InsufficientDataError, NumericError, ParseError,
                     ToolkitError, TruncationError, ValidationError)
from .states import (GaussianBipartiteState, SingleModeState,
                     apply_beam_splitter, beam_splitter_matrix,
                     c_block_is_zero, modulated_beam, rotate_local,
                     rotation_matrix, split_balanced, tensor, vacuum_single,
                     validate_covariance)
from .marginals import (ArcsineComponent, CoherentPoint, MarginalForm,
                        PMixtureState, ThermalComponent,
                        analytic_peak_separation,
                        conditional_marginal_density, input_marginal_D1,
                        joint_marginal_density, joint_marginal_form,
                        marginal_b_density, output_joint_density,
                        side_probability)
from .sampler import (AsyncSine, RecordSet, SwitchedNoise, SwitchedPhase,
                      read_records, sample_gaussian, sample_scheme,
                      write_records)
from .verifier import (ChiSquareResult, DiscordVerdict, Histogram,
                       MixtureVerdict, PeakEstimate, chi_square_two_sample,
                       estimate_density, estimate_peak, split_by_threshold,
                       sweep_modulation, verdict_gaussian, verdict_mixture)
from .fock import (FockDensityMatrix, bipartite_from_parts,
                   build_ce_hidden_discord, build_ce_zero_discord,
                   coherent_fock, commutator_norm, condition_b_on_sign,
                   default_grid, density_from_vector, fock_state_to_json,
                   homodyne_marginal_fock, marginal_peak,
                   oscillator_eigenfunctions, quadrature_moments,
                   sign_projectors, squeezed_vacuum_fock, superposition_basis,
                   thermal_fock, verify_classical_on_b)

# the names imported above; the submodules, which importing them binds here
# too, are not part of it
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _Module))]
