"""Exact, truncated computations of nerves, Grothendieck constructions,
marked localizations and bar-construction homotopy colimits, with a
certification engine for the comparison maps between them."""

from .certify import (Certificate, check_bisimplicial,
                      check_simplicial_identities, cocartesian_edge,
                      cocartesian_fibration, inner_horn_lifts, verify_iso_map)
from .classic import double_category, grothendieck_classic, nerve_comparison
from .fincat import (CatDiagram, CatFunctor, FinCategory, SSetDiagram, nerve,
                     over_category, under_category, validate_category)
from .hocolim import (bar_hocolim, colim_via_marked, counit_w2, eta_unit,
                      hocolim_qcat, iota)
from .homology import homology_groups, normalized_chains, pi0
from .marked import (MarkedDiagram, MarkedSSet, equivalences, extend_along_J,
                     localize, mark, marked_rel_nerve, rectify_right,
                     unstraighten_at)
from .pathspace import (compare_relnerve_iso, fiber_at, lurie_grothendieck,
                        relative_nerve_direct, simplicial_space)
from .sset import SimplicialMap, TruncSSet, build_generated, product, pushout

__version__ = "0.1.0"

__all__ = [
    "Certificate", "check_bisimplicial", "check_simplicial_identities",
    "cocartesian_edge", "cocartesian_fibration", "inner_horn_lifts",
    "verify_iso_map", "double_category", "grothendieck_classic",
    "nerve_comparison", "CatDiagram", "CatFunctor", "FinCategory",
    "SSetDiagram", "nerve", "over_category", "under_category",
    "validate_category", "bar_hocolim", "colim_via_marked", "counit_w2",
    "eta_unit", "hocolim_qcat", "iota", "homology_groups",
    "normalized_chains", "pi0", "MarkedDiagram", "MarkedSSet",
    "equivalences", "extend_along_J", "localize", "mark", "marked_rel_nerve",
    "rectify_right", "unstraighten_at", "compare_relnerve_iso", "fiber_at",
    "lurie_grothendieck", "relative_nerve_direct", "simplicial_space",
    "SimplicialMap", "TruncSSet", "build_generated", "product", "pushout",
]
