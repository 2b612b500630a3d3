"""polyharmlab: desk-scale numerical laboratory for H = (-Delta)^m + V on
periodic spectral grids -- free-resolvent kernels, Birman-Schwinger spectral
diagnostics, embedded-eigenvalue constructions, and smoothing / dispersive /
Sobolev-scaling probe suites."""

from .grid import (
    Field,
    GridSpec,
    apply_multiplier,
    field_from_function,
    field_from_spectrum,
    forward_transform,
    norm_lp,
    read_field,
    weighted_l2_norm,
    write_field,
)
from .kernels import (
    ResolventQuery,
    bessel_kernel,
    laplace_kernel,
    polyharm_kernel,
    riesz_kernel,
)
from .potentials import (
    Potential,
    bracket_decay,
    gaussian_well,
    potential_from_callable,
    zero_potential,
)
from .resolvent import (
    boundary_symbol,
    boundary_value_pairing,
    high_energy_decay_probe,
    spectral_density,
    weighted_resolvent_norm,
)
from .birman_schwinger import (
    BSMatrix,
    assemble_M,
    birman_schwinger_count,
    detect_zero_resonance,
    inv_norm_sweep,
    neumann_threshold,
    perturbed_resolvent_apply,
    supersmooth_sweep,
)
from .hamiltonian import (
    EigenSet,
    Hamiltonian,
    clr_check,
    duhamel,
    lanczos_extreme,
    negative_spectrum,
    projector_ac,
    propagate,
    propagate_adjoint,
    repulsive_check,
)
from .counterexample import (
    EmbeddedPair,
    build_embedded_pair,
    load_embedded_pair,
    save_embedded_pair,
    verify_embedded,
)
from .probes import (
    AdmissiblePair,
    inhomogeneous_smoothing_probe,
    kato_smoothing_probe,
    sobolev_scaling_probe,
    stein_weiss_probe,
    strichartz_probe,
    validate_admissible,
)
from .reporting import ProbeReport, fit_loglog

__version__ = "0.1.0"
