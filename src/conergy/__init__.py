"""Finite-lattice congruence energy toolkit."""

from .algebra import (
    CeBoundVerdict,
    FiniteAlgebra,
    Operation,
    all_congruences_alg,
    ce_bound_check,
    congruence_closure,
    lattice_as_algebra,
)
from .congruence import (
    CongruenceLattice,
    all_congruences,
    brute_force_congruences,
    congruence_energies,
    is_boolean,
    is_congruence,
    is_distributive,
    join_with_atom_map,
    perspectivity_closure,
    principal_congruence,
    quotient,
    upset_split,
)
from .counting import (
    aux_u,
    aux_v,
    aux_w,
    bell,
    bell2,
    equ_energy_bound,
    g_max,
    g_pn,
    g_sb,
    stirling2,
)
from .energy import (
    adjacency_of,
    combinatorial_energy,
    congruence_energy,
    spectral_energy,
    spectrum,
)
from .enumeration import (
    all_lattices,
    all_lattices_brute,
    extremal_report,
    is_glued_n5_shape,
)
from .lattice import (
    Lattice,
    PrimeInterval,
    are_isomorphic,
    canonical_form,
    chain,
    count_two_element_antichains,
    dual,
    from_covers,
    glued_sum,
    is_chain,
    named,
)
from .partition import (
    all_partitions,
    bottom,
    heq,
    num_blocks,
    top,
)

__version__ = "0.1.0"
