"""jnlab: congruent-cube oscillation norms, singular integral operators, and
atomic/molecular decompositions on uniform grids."""

from .lattice import (
    Annulus,
    Ball,
    Cube,
    EmptyRegionError,
    GridFunction,
    Window,
    annulus,
    average,
    integrate,
    lq_norm,
    moments,
    monomials,
    region_measure,
)
from .polyproj import (
    ConditioningError,
    Polynomial,
    Projector,
    moment_projection,
    multi_indices,
)
from .spaces import (
    NormParams,
    SearchConfig,
    amalgam_norm,
    jn_ball_seminorm,
    jn_con_norm,
    jn_partition_oracle,
    norm_pair,
    rm_ball_seminorm,
    rm_con_norm,
)
from .czkernel import (
    CorrectionSpec,
    KernelSpec,
    apply_cz,
    apply_modified,
    apply_truncated,
    hilbert_kernel,
    kernel_by_name,
    kernel_transpose,
    modified_on_monomial,
    perturbed_kernel,
    poly_distance,
    riesz_kernel,
    smooth_bump_kernel,
    vanishing_moment_defect,
)
from .hardy import (
    AtomRecord,
    CertificationError,
    MoleculeRecord,
    ParameterError,
    ZeroAtomError,
    decompose_molecule,
    epsilon_window,
    hk_upper_bound,
    make_atom,
    make_molecule,
    pairing,
    repair_moments,
    validate_atom,
    validate_molecule,
)
from .lab import ExperimentConfig, default_config, make_family, run_experiment

__version__ = "0.1.0"
