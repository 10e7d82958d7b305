"""The bar-construction homotopy colimit: comparison into the relative
nerve, integral-homology agreement with the classical construction, the
localized composites, and the unit/counit of the rectification adjunction."""

from relnerve.certify import check_simplicial_identities
from relnerve.classic import grothendieck_classic
from relnerve.fincat import (CatDiagram, SSetDiagram, arrow_category,
                             cyclic_group_category, identity_functor, nerve,
                             span_category)
from relnerve.hocolim import (bar_hocolim, colim_via_marked, counit_w2,
                              eta_unit, hocolim_qcat, iota,
                              iota_fiber_bijective)
from relnerve.homology import format_homology, homology_table, pi0
from relnerve.marked import mark_diagram
from relnerve.sset import (constant_map, discrete, identity_map,
                           standard_simplex)

cap = 3
C = span_category()
pt_a, pt_b = standard_simplex(0, cap), standard_simplex(0, cap)
two = discrete(2, cap)
F = SSetDiagram(C, [pt_a, pt_b, two],
                [identity_map(pt_a), identity_map(pt_b), identity_map(two),
                 constant_map(two, pt_a, 0), constant_map(two, pt_b, 0)])

print("== the bar construction and its comparison map ==")
bar = bar_hocolim(F, cap)
print("bar total counts:", bar.total.counts)
print(check_simplicial_identities(bar.total, "bar").line())
io, bar, rel = iota(F, cap)
print("comparison into the relative nerve: simplicial=%s injective=%s "
      "fiberwise-bijective=%s"
      % (io.validate() == [], io.is_injective(),
         iota_fiber_bijective(io, bar, rel, F)))

print("\n== Thomason agreement at desk scale ==")
V = cyclic_group_category(2)
G = CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
NF = G.nerve_diagram(cap)
barG = bar_hocolim(NF, cap)
NG = nerve(grothendieck_classic(G).total, cap)
print("H(bar of nerves):")
for line in format_homology(homology_table(barG.total, cap - 1)):
    print("  " + line)
print("H(nerve of classical construction):")
for line in format_homology(homology_table(NG, cap - 1)):
    print("  " + line)

print("\n== localized homotopy colimit of the span ==")
H = hocolim_qcat(F, cap)
print("glued walking isomorphisms:", len(H.localization.glued_edges))
print("homology (still the circle):")
for line in format_homology(homology_table(H.total, cap - 1)):
    print("  " + line)
print("components:", len(pi0(H.total)))

print("\n== the colimit composite ==")
cc = colim_via_marked(F)
print("span: mode=%s ok=%s direct counts=%s" % (cc.mode, cc.ok,
                                                cc.colimit.counts))

print("\n== unit and counit shadows ==")
A = arrow_category()
W = nerve(arrow_category(), cap)
from relnerve.sset import SimplicialMap
idw = SimplicialMap(W, W, [list(range(W.counts[n])) for n in range(cap + 1)])
FD = SSetDiagram(A, [W, W], [identity_map(W), idw, identity_map(W)])
FM = mark_diagram(FD, "natural")
eta, space, OM, R = eta_unit(FM, 0, 1)
print("unit at d=0: simplicial=%s injective=%s"
      % (eta.validate() == [], eta.is_injective()))
w2, barR, rect = counit_w2(OM, 1)
surj = set(w2.comp[0]) == set(range(OM.sset.counts[0]))
print("counit: simplicial=%s vertex-surjective=%s"
      % (w2.validate() == [], surj))
