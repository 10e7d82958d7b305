"""Marked simplicial sets: equivalence witnesses, localization by gluing
walking isomorphisms, and truncated coCartesian certification of marked
relative nerves."""

from relnerve.certify import (cocartesian_edge, cocartesian_fibration,
                              verify_iso_map)
from relnerve.fincat import (arrow_category, chain_category,
                             cyclic_group_category, indiscrete_groupoid,
                             nerve)
from relnerve.homology import format_homology, homology_table
from relnerve.marked import (degenerate_edges, equivalences, extend_along_J,
                             localize, mark, mark_diagram, marked_rel_nerve)
from relnerve.sset import SimplicialMap, standard_simplex, walking_iso

cap = 3
print("== equivalence witnesses ==")
NZ = nerve(cyclic_group_category(2), cap)
print("every edge of a groupoid nerve has an invertibility witness:",
      len(equivalences(NZ)), "of", NZ.counts[1])
NP = nerve(chain_category(2), cap)
print("a poset nerve only has the degenerate ones:",
      set(equivalences(NP)) == set(degenerate_edges(NP)))

print("\n== localization ==")
D1 = standard_simplex(1, cap)
loc = localize(mark(D1, "sharp"))
J = walking_iso(cap)
print("localize(sharp interval) counts %s = J counts %s"
      % (loc.total.counts, J.counts))
from relnerve.sset import invert_bijection
print(verify_iso_map(loc.j_legs[0], invert_bijection(loc.j_legs[0]),
                     "glued copy onto the localization").line())
print("flat objects are untouched:",
      localize(mark(D1, "flat")).total is D1)

NI = nerve(indiscrete_groupoid(3), cap)
loci = localize(mark(NI, "sharp"))
print("sharp contractible groupoid nerve localizes to a point, homology:")
for line in format_homology(homology_table(loci.total, cap - 1)):
    print("  " + line)

print("\n== extensions along the walking isomorphism ==")
print("generator edge extends by the identity:",
      extend_along_J(J, J.id_of(1, (0, 1))).comp[1][J.id_of(1, (0, 1))]
      == J.id_of(1, (0, 1)))
print("a non-invertible edge has no extension:",
      extend_along_J(D1, D1.id_of(1, (0, 1))) is None)

print("\n== coCartesian audits of the marked relative nerve ==")
C = arrow_category()
V = nerve(arrow_category(), cap)
idmap = SimplicialMap(V, V, [list(range(V.counts[n]))
                             for n in range(cap + 1)])
from relnerve.fincat import SSetDiagram
from relnerve.sset import identity_map
F = SSetDiagram(C, [V, V], [identity_map(V), idmap, identity_map(V)])
FM = mark_diagram(F, "natural")
OM, R = marked_rel_nerve(FM, cap)
print("marked edges:", len(OM.marked.marked), "of", OM.sset.counts[1])
print(cocartesian_fibration(OM.proj, 3, "projection").line())
deg = OM.sset.degenerate_flags(1)
for e in sorted(OM.marked.marked):
    if not deg[e]:
        print(cocartesian_edge(OM.proj, e, 3).line())

bad = next(s for s in OM.sset.simplices(1)
           if R.base_nerve.key_of(1, OM.sset.key_of(1, s)[0]) == (1,)
           and OM.sset.key_of(1, s)[1][1] == V.id_of(1, (1,)))
print("a non-invertible unmarked fiber edge over the base arrow:")
print(cocartesian_edge(OM.proj, bad, 2).line())
