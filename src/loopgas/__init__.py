"""Loop-gas sampler and validation suite for multi-type Bose gases.

Feynman-Kac representation of a quantum gas with non-negative finite-range
pair interactions: particle configurations become finite families of closed
Brownian loops of integer multiplicity, weighted by fugacity powers and an
equal-time pair energy.  The package provides exact bridge sampling, a
grand-canonical Metropolis chain over loop configurations, nested Monte
Carlo kernel estimators with certified truncation bounds, closed-form
series and bounds to validate them against, a small-lattice exact
diagonalisation oracle, and an enumerable discrete twin of the sampler for
detailed-balance tests.
"""

__version__ = "0.1.0"

from .model import (Box, ExternalConfiguration, ModelParams, PairPotential,
                    validate_params, zero_potential)
from .bridge import (BridgePath, bridge_mass, log_bridge_mass, sample_bridge,
                     sample_bridges, resample_leg, max_deviation_tail,
                     empirical_max_deviation_tail, fit_gaussian_tail_envelope)
from .loops import (Loop, LoopConfig, OpenPath, interaction_energy,
                    dumps_config, loads_config)
from .analytic import (SeriesResult, loop_moment, closed_form_moment_2d,
                       free_gas_kernel, external_control_bound, growth_family,
                       gradient_bound_constants, multiplicity_tail_bound,
                       dirichlet_box_trace, q_square_integral_bound,
                       suggested_growth_constant)
from .mc import (Chain, SamplerOptions, KernelEstimate, batch_means,
                 estimate_reference_kernel, estimate_rdm_kernel,
                 estimate_density, estimate_multiplicity_tail,
                 shift_invariance_probe, save_checkpoint, load_checkpoint)

__all__ = [
    "Box", "ExternalConfiguration", "ModelParams", "PairPotential",
    "validate_params", "zero_potential",
    "BridgePath", "bridge_mass", "log_bridge_mass", "sample_bridge",
    "sample_bridges", "resample_leg", "max_deviation_tail", "empirical_max_deviation_tail",
    "fit_gaussian_tail_envelope",
    "Loop", "LoopConfig", "OpenPath", "interaction_energy",
    "dumps_config", "loads_config",
    "SeriesResult", "loop_moment", "closed_form_moment_2d", "free_gas_kernel",
    "external_control_bound", "growth_family", "gradient_bound_constants",
    "multiplicity_tail_bound", "dirichlet_box_trace",
    "q_square_integral_bound", "suggested_growth_constant",
    "Chain", "SamplerOptions", "KernelEstimate", "batch_means",
    "estimate_reference_kernel", "estimate_rdm_kernel", "estimate_density",
    "estimate_multiplicity_tail", "shift_invariance_probe",
    "save_checkpoint", "load_checkpoint",
    "__version__",
]
