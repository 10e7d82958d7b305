"""Mapping path spaces, the simplicial space they assemble into, and the two
relative-nerve constructions with their certified comparison.

The running example is the span a <- c -> b with a two-point fiber over the
apex: the total space of the relative nerve is a circle.
"""

from relnerve.bisset import i1_star
from relnerve.certify import check_bisimplicial, verify_iso_map
from relnerve.fincat import SSetDiagram, span_category
from relnerve.homology import format_homology, homology_table
from relnerve.pathspace import (PathSpace, compare_relnerve_iso, fiber_at,
                                lurie_grothendieck, path_space_zigzag,
                                relative_nerve_direct, row_identification,
                                simplicial_space, space_projection_ok)
from relnerve.sset import (Exponential, constant_map, discrete, identity_map,
                           standard_simplex)

cap = 3
C = span_category()
pt_a, pt_b = standard_simplex(0, cap), standard_simplex(0, cap)
two = discrete(2, cap)
F = SSetDiagram(C, [pt_a, pt_b, two],
                [identity_map(pt_a), identity_map(pt_b), identity_map(two),
                 constant_map(two, pt_a, 0), constant_map(two, pt_b, 0)])

print("== path spaces over single base simplices ==")
ps = PathSpace(F, (3,), 1, 2)         # over the arrow c -> a
print("P^1 over c->a, internal counts:", ps.sset.counts)
print("independent zig-zag limit oracle:", path_space_zigzag(F, (3,), 1, 2))

from relnerve.fincat import terminal_category

Y = standard_simplex(1, 4)
Ft = SSetDiagram(terminal_category(), [Y], [identity_map(Y)])
pid = PathSpace(Ft, (0, 0), 2, 1)
E = Exponential(Y, standard_simplex(2, 4), 1)
print("identity string: P^2 counts %s = mapping object counts %s"
      % (pid.sset.counts, E.counts))

print("\n== the simplicial space and its zeroth row ==")
S = simplicial_space(F, 2, 1)
print("entry counts (base degree x internal degree):", S.bisset.counts)
print(check_bisimplicial(S.bisset, "simplicial space").line())
print("projection to the boxed base commutes:", space_projection_ok(S))
row0 = i1_star(S.bisset)
R = lurie_grothendieck(F, cap)
print("zeroth row counts %s = relative nerve counts %s"
      % (row0.counts, R.total.counts[:3]))

f, g, target = row_identification(S, F, 1, 2)
print(verify_iso_map(f, g, "row-1 vs relative nerve of the cotensor").line())

print("\n== the two constructions and their comparison ==")
Rd = relative_nerve_direct(F, cap)
print("subposet construction counts:", Rd.total.counts)
f, g, L, Rd2 = compare_relnerve_iso(F, cap)
print(verify_iso_map(f, g, "comparison round-trip").line())

print("\nthe total space is a circle:")
for line in format_homology(homology_table(R.total, 2)):
    print("  " + line)
for c, name in ((0, "a"), (1, "b"), (2, "c")):
    fib, inc, ff, gg = fiber_at(R, c)
    print("fiber over %s: %s, %s" % (name, fib.counts,
                                     verify_iso_map(ff, gg, "value").line()))
