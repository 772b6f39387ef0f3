"""Energy forms on weighted graphs, dipole spectra, and transfer operators.

The package splits into three layers.  `graphs` and `tree` hold the exact
combinatorics: weighted graphs with their Laplacian, transfer operator,
and energy form, plus the binary tree with its dipoles and digit
encodings.  `spectra` diagonalizes Gram matrices of dipoles and carries
the eigensystem back to the energy space.  `walks`, `circle`, and `rng`
cover the stochastic side: finite Markov chains sampled reproducibly,
trigonometric calculus and filter transfer operators on the circle, and
walks on inverse orbits of the doubling map.
"""

__version__ = "0.1.0"

from .graphs import (
    GraphError,
    WeightedGraph,
    load_graph,
    laplacian_apply,
    transfer_apply,
    l2_inner,
    energy_inner,
    energy_gram,
    quadratic_form_l2,
    quadratic_form_energy,
    conductance_mean,
)
from .tree import (
    ORIGIN,
    tree_graph,
    words_up_to,
    common_prefix_length,
    dipole_value,
    dipole_function,
    dipole_defect,
    encode_nat,
    decode_nat,
    encode_int,
    decode_int,
    sigma_maps,
    prepend_digit,
    encode_nadic,
    cantor_encode,
)
from .spectra import (
    GramSpectrum,
    KLVector,
    eigh,
    gram_matrix,
    gram_spectrum,
    kl_vectors,
    kl_value,
    kl_vertex_function,
    kl_gram_check,
    dipole_combination,
    rayleigh_energy,
    reciprocity_spectrum,
    r_function,
    spectral_growth,
    linear_independence_check,
)
from .walks import (
    FiniteMarkov,
    PathEnsemble,
    CheckRow,
    CheckReport,
    is_irreducible,
    is_aperiodic,
    stationary_measure,
    ergodic_limit,
    simulate,
    cylinder_mass,
    covariance_exact,
    covariance_mc,
    markov_check,
    harmonic_solve,
    martingale_check,
    doob_boundary_check,
)
from .circle import (
    TrigPoly,
    WaveletFilter,
    QmfReport,
    haar_filter,
    four_tap_filter,
    cantor_filter,
    modulation,
    qmf_check,
    w_from_filter,
    transfer_apply as circle_transfer_apply,
    lowpass_check,
    cascade_phihat,
    tightness_defect,
    pt_cylinder_mass,
    strong_invariance_check,
    v_adjoint_check,
    DyadicAngle,
    SolenoidEnsemble,
    solenoid_walk,
    solenoid_covariance_mc,
    solenoid_covariance_exact,
)
from .rng import mix64, derive_key, uniform

__all__ = [name for name in dir() if not name.startswith("_")]
