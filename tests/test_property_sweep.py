"""Cross-construction property sweep on seeded random diagrams, coupling
the independent oracles: zig-zag limits against path spaces, the classical
triangle against the relative nerve, and homology against both hocolim
models."""

import random

from relnerve.certify import (check_bisimplicial, check_simplicial_identities,
                              verify_iso_map)
from relnerve.classic import (audit_double_category, double_category,
                              grothendieck_classic, nerve_comparison)
from relnerve.fincat import nerve
from relnerve.hocolim import bar_hocolim, colim_via_marked, iota, iota_audit
from relnerve.homology import homology_table
from relnerve.pathspace import (PathSpace, compare_relnerve_iso,
                                lurie_grothendieck, path_space_zigzag,
                                relative_nerve_direct, simplicial_space)
from relnerve.randomgen import (SuiteBounds, random_cat_diagram,
                                random_sset_diagram)

BOUNDS = SuiteBounds()


def test_sset_diagram_sweep():
    rng = random.Random(101)
    for _ in range(6):
        F = random_sset_diagram(rng, BOUNDS)
        R = lurie_grothendieck(F, 4)
        Rd = relative_nerve_direct(F, 4)
        assert check_simplicial_identities(R.total).ok
        assert check_simplicial_identities(Rd.total).ok
        f, g, _, _ = compare_relnerve_iso(F, 4)
        assert verify_iso_map(f, g).ok
        bar = bar_hocolim(F, 4)
        io, _, _ = iota(F, 4, bar=bar, rel=R)
        assert iota_audit(io, bar, R, F).ok
        assert check_bisimplicial(simplicial_space(F, 2, 2).bisset).ok
        NC = R.base_nerve
        nondeg = [e for e in NC.simplices(1)
                  if not NC.degenerate_flags(1)[e]]
        if nondeg:
            key = NC.key_of(1, nondeg[0])
            ps = PathSpace(F, key, 1, 2)
            assert ps.sset.counts == path_space_zigzag(F, key, 1, 2)
        assert colim_via_marked(F).ok


def test_cat_diagram_sweep():
    rng = random.Random(202)
    for _ in range(6):
        G = random_cat_diagram(rng, BOUNDS)
        assert audit_double_category(double_category(G)) == []
        Gr = grothendieck_classic(G)
        NF = G.nerve_diagram(4)
        bar = bar_hocolim(NF, 4)
        NG = nerve(Gr.total, 4)
        assert homology_table(bar.total, 3) == homology_table(NG, 3)
        f, g, _, _ = nerve_comparison(Gr, 3)
        assert verify_iso_map(f, g).ok
