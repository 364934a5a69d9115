"""Littlewood-Paley / Besov analysis on the periodic torus, with a mild-solution
Picard solver for the viscous Boussinesq system."""

__version__ = "0.1.0"

from .besov import (
    INF,
    BesovSpec,
    FieldTrajectory,
    MixedSpec,
    besov_norm,
    block_lp_norms,
    chemin_lerner_norm,
    heat_characterization_norm,
    heat_trajectory,
    kato_weighted_norm,
    lebesgue_besov_norm,
    lp_norm,
)
from .comb import DiracCombSpec, dirac_comb_norms
from .cutoffs import CutoffPair, build_cutoffs, partition_defect
from .dyadic import (
    DyadicDecomposition,
    decompose,
    dyadic_block,
    partial_sum,
    reconstruction_cap,
    shell_max,
    support_report,
)
from .ensembles import random_field, single_mode, taylor_green
from .paraproduct import (
    BilinearEstimateSpec,
    BonyParts,
    bilinear_constant_estimate,
    bony_decompose,
    paraproduct_T,
    remainder_R,
)
from .spectral import (
    Field,
    FieldFormatError,
    Grid,
    dealiased_product,
    divergence,
    gradient,
    heat_propagate,
    helmholtz_project,
    read_field,
    write_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
