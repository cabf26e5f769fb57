"""Finite racks, (t,s)-racks, and enhanced link invariants."""

__version__ = "0.1.0"

from .groups import AbelianGroup, invariant_factors, subgroup_closure
from .racks import (
    FiniteRack,
    constant_action_rack,
    conjugation_rack,
    find_isomorphism,
    is_homomorphism,
    maximal_subquandle,
    rack_from_text,
    rack_rank,
    validate_rack,
)
from .modules import (
    TSRack,
    TSRackIsoCertificate,
    alexander_iso_check,
    enumerate_linear,
    make_linear,
    make_module,
    make_quotient,
    module_iso_exists,
    s_submodule,
    tsrack_from_spec,
    tsrack_iso_check,
)
from .diagrams import (
    LinkDiagram,
    add_kink,
    framed_family,
    parse_braid,
    parse_link,
    parse_pd,
    pd_code,
)
from .polynomials import InvariantPolynomial, order_compare
from .invariants import (
    additive_enhanced,
    counting_invariant,
    enumerate_homs,
    enumerate_homs_linear,
    s_enhanced,
    writhe_enhanced,
)
from .atlas import load_corpus
