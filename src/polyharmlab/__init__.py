"""polyharmlab: desk-scale numerical laboratory for H = (-Delta)^m + V on
periodic spectral grids -- the free resolvent's lattice symbol and boundary
values, Birman-Schwinger spectral diagnostics, embedded-eigenvalue
constructions, and smoothing / dispersive / Sobolev-scaling probe suites."""

from .grid import (
    GridSpec,
    apply_multiplier,
    forward_transform,
    norm_lp,
    read_field,
    write_field,
)
from .potentials import (
    Potential,
    bracket_decay,
    gaussian_well,
)
from .resolvent import (
    ResolventQuery,
    boundary_symbol,
    high_energy_decay_probe,
    weighted_resolvent_norm,
)
from .birman_schwinger import (
    BSMatrix,
    assemble_M,
    birman_schwinger_count,
    inv_norm_sweep,
    perturbed_resolvent_apply,
)
from .hamiltonian import (
    EigenSet,
    Hamiltonian,
    clr_check,
    lanczos_extreme,
    negative_spectrum,
    projector_ac,
    propagate,
    propagate_adjoint,
)
from .counterexample import (
    EmbeddedPair,
    build_embedded_pair,
    save_embedded_pair,
    verify_embedded,
)
from .probes import (
    AdmissiblePair,
    kato_smoothing_probe,
    sobolev_scaling_probe,
    stein_weiss_probe,
    strichartz_probe,
    validate_admissible,
)
from .reporting import ProbeReport, fit_loglog

__version__ = "0.1.0"
