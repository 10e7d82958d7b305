"""Truncated, degreewise-finite simplicial sets.

A ``TruncSSet`` stores simplices up to a fixed dimension ``cap`` as dense
integer ids per degree, together with explicit face and degeneracy tables.
All constructions in this package (products, pushouts, exponentials, nerves,
path spaces, ...) are computed degreewise on these tables, which keeps every
operation exact below the cap.

Conventions:

* ``faces[n][i][s]`` is ``d_i(s)`` for a degree-``n`` simplex ``s``
  (``1 <= n <= cap``, ``0 <= i <= n``).
* ``degens[n][i][s]`` is ``s_i(s)`` (``0 <= n < cap``, ``0 <= i <= n``).
* ``operator_tables`` is the only code that lays these tables out, and
  ``operator(n, i, d)`` reads ``d_i`` (``d = -1``) or ``s_i`` (``d = 1``).
* Simplex identity is id equality within a fixed ``TruncSSet``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator


class SSetError(Exception):
    pass


class TruncationError(SSetError):
    """Raised when a request exceeds what the truncation can answer exactly."""


class TruncSSet:
    def __init__(self, cap, counts, faces, degens):
        if cap < 0:
            raise SSetError("cap must be >= 0")
        if len(counts) != cap + 1:
            raise SSetError("counts must have cap+1 entries")
        self.cap = cap
        self.counts = list(counts)
        self.faces = faces      # faces[n] for 1<=n<=cap, list of n+1 tables
        self.degens = degens    # degens[n] for 0<=n<cap, list of n+1 tables
        self._nondeg_cache = {}
        self._degflag_cache = {}
        self._by_faces_cache = {}
        self._op_cache = {}
        self._ez_cache = {}
        self._closure_cache = {}
        self._prism_cache = {}
        self._prism_plan_cache = {}
        self._layout = None
        self._search_plan = None

    # -- basic access ------------------------------------------------------

    def simplices(self, n):
        return range(self.counts[n])

    def operator(self, n, i, d):
        """The table of ``d_i`` (``d = -1``) or ``s_i`` (``d = 1``) on the
        degree-n simplices, into degree ``n + d``."""
        return (self.faces if d < 0 else self.degens)[n][i]

    # -- degeneracy structure ----------------------------------------------

    def degenerate_flags(self, n):
        """Boolean list: flags[s] iff the degree-n simplex s is degenerate,
        i.e. in the image of some ``s_i``."""
        if n not in self._degflag_cache:
            flags = [False] * self.counts[n]
            for table in self.degens[n - 1] if n else ():
                for s in table:
                    flags[s] = True
            self._degflag_cache[n] = flags
        return self._degflag_cache[n]

    def nondegenerate(self, n):
        if n not in self._nondeg_cache:
            flags = self.degenerate_flags(n)
            self._nondeg_cache[n] = [s for s in range(self.counts[n])
                                     if not flags[s]]
        return self._nondeg_cache[n]

    # -- face lookups (cached: the tables must not change after first use) ---

    def by_faces(self, n, idxs):
        """Degree-n simplices (n >= 1) grouped by their faces ``d_i s`` for
        ``i`` in ``idxs``: keyed by the face itself when ``idxs`` has one
        index, else by the tuple of the faces, so ``range(n + 1)`` keys them
        by their whole boundary ``(d_0 s, .., d_n s)``."""
        idxs = tuple(idxs)
        if (n, idxs) not in self._by_faces_cache:
            tables = [self.faces[n][i] for i in idxs]
            self._by_faces_cache[n, idxs] = group_positions(
                tables[0] if len(tables) == 1 else zip(*tables))
        return self._by_faces_cache[n, idxs]

    def nondeg_dim(self):
        """Largest degree carrying a nondegenerate simplex."""
        top = 0
        for n in range(self.cap + 1):
            if self.nondegenerate(n):
                top = n
        return top

    def ez_table(self, n):
        """The unique Eilenberg-Zilber decomposition ``(word, m, y)`` of
        every degree-n simplex ``s`` (cached): applying ``s_{word[0]} ..
        s_{word[-1]}`` (innermost last) to the nondegenerate ``y`` in degree
        ``m`` gives ``s``, and ``word`` strictly decreases.  ``s`` takes the
        word of ``d_i s`` with ``i`` put in front, for the largest ``i``
        with ``s_i d_i s == s``."""
        if n not in self._ez_cache:
            table = [([], n, s) for s in self.simplices(n)]
            for i in range(n):                  # a larger i overwrites
                D, below = self.degens[n - 1][i], self.ez_table(n - 1)
                for s, t in enumerate(self.faces[n][i]):
                    if D[t] == s:
                        word, m, y = below[t]
                        table[s] = ([i] + word, m, y)
            if any(word[1:] and word[0] <= word[1] for word, _, _ in table):
                raise SSetError("EZ word not strictly decreasing: "
                                "structure defect")
            self._ez_cache[n] = table
        return self._ez_cache[n]

    def closure(self, n, s):
        """The closure plan of the nondegenerate degree-n simplex ``s``
        (cached): the entries ``(m, y, u)``, one per nondegenerate ``y``
        under ``s`` and injective vertex tuple ``u: [m] -> [n]`` with ``y =
        X(u)(s)``, ``s`` itself first and then, depth first, those under
        each face in turn; and the checks ``(v, w)``, one per degenerate
        face ``X(v)(s) = X(w)(s)`` of an entry, ``v`` injective and ``w``
        the vertex tuple of its EZ decomposition (``word_tuple`` after the
        root's ``u``).  A map with value ``b`` at ``s`` has the value
        ``B(u)(b)`` at each entry, and is simplicial on the closure iff
        these agree at each ``y`` and ``B(v)(b) == B(w)(b)`` at each check.
        """
        if (n, s) not in self._closure_cache:
            entries, checks = {(n, s, tuple(range(n + 1))): None}, {}
            for i in range(n + 1 if n else 0):
                word, m, y = self.ez_table(n - 1)[self.faces[n][i][s]]
                v = u = coface_tuple(n, i)
                for j in word:
                    u = u[:j] + u[j + 1:]
                if word:
                    checks[v] = tuple(map(u.__getitem__, word_tuple(m, word)))
                below, below_checks = self.closure(m, y)
                for k, z, t in below:
                    entries[k, z, tuple(map(u.__getitem__, t))] = None
                for a, c in below_checks:
                    checks[tuple(map(u.__getitem__, a))] = tuple(
                        map(u.__getitem__, c))
            self._closure_cache[n, s] = list(entries), list(checks.items())
        return self._closure_cache[n, s]

    def op_table(self, n, u):
        """``X(u)`` on every degree-n simplex (cached; do not modify), for
        ``u: [l] -> [n]`` a nondecreasing tuple: the faces dropping the
        vertices outside its image, highest first, so each face index is the
        vertex itself, then ``s_{k-1}`` for each ``u[k] == u[k-1]``."""
        key = (n, u)
        if key not in self._op_cache:
            if any(u[k] > u[k + 1] for k in range(len(u) - 1)):
                raise SSetError("vertex map must be monotone")
            table, d = range(self.counts[n]), n
            for v in range(n, -1, -1):
                if v not in u:
                    table = [self.faces[d][v][s] for s in table]
                    d -= 1
            for k in range(1, len(u)):
                if u[k] == u[k - 1]:
                    table = [self.degens[d][k - 1][s] for s in table]
                    d += 1
            self._op_cache[key] = list(table)
        return self._op_cache[key]

    def apply_vertex_map(self, n, s, u):
        """``X(u)(s)``; see ``op_table``."""
        return self.op_table(n, tuple(u))[s]

    def prism(self, n):
        """``product(Delta[n], X)``, with the shared Delta[n] (see
        ``shared_simplex``), and its two projections (cached): the domain of
        the degree-n simplices of a mapping object out of X."""
        if n not in self._prism_cache:
            self._prism_cache[n] = product(shared_simplex(n, self.cap), self)
        return self._prism_cache[n]

    def prism_plan(self, n, u, g=None):
        """The plan (see ``compact_plan``) precomposing the maps out of
        ``prism(n)`` with ``u x g: Delta[l] x W -> prism(n)``, for a monotone
        vertex tuple ``u: [l] -> [n]`` and a map ``g: W -> X``, the identity
        when None (cached per ``(n, u, g)``: pass the same g to reuse it)."""
        if (n, u, g) not in self._prism_plan_cache:
            Q, q1, q2 = (self if g is None else g.domain).prism(len(u) - 1)
            f = shared_vertex_map(u, n, self.cap).comp
            h = [range(c) for c in self.counts] if g is None else g.comp
            self._prism_plan_cache[n, u, g] = compact_plan(
                self.prism(n)[0], Q, lambda d, t: f[d][q1.comp[d][t]]
                * self.counts[d] + h[d][q2.comp[d][t]])
        return self._prism_plan_cache[n, u, g]

    def compact_layout(self):
        """The layout of a compact key of a map out of this object (cached):
        the nondegenerate simplices ``(n, s)`` by degree and then by id, the
        position of each (``where[n][s]``, None when degenerate), the
        degenerate ``(n, s, j, t)`` with ``s = s_j t``, from the lowest
        degree up, and the maximal nondegenerate simplices, those that are
        not the EZ root of a face of a higher one, from the top degree
        down and by id."""
        if self._layout is None:
            order = [(n, s) for n in range(self.cap + 1)
                     for s in self.nondegenerate(n)]
            where = [[None] * c for c in self.counts]
            for p, (n, s) in enumerate(order):
                where[n][s] = p
            fill = [(n, s, word[0], self.faces[n][word[0]][s])
                    for n in range(self.cap + 1)
                    for s, (word, _, _) in enumerate(self.ez_table(n)) if word]
            roots = {self.ez_table(n - 1)[face[s]][1:]
                     for n in range(1, self.cap + 1) for face in self.faces[n]
                     for s in self.nondegenerate(n)}
            top = [(n, s) for n in range(self.cap, -1, -1)
                   for s in self.nondegenerate(n) if (n, s) not in roots]
            self._layout = order, where, fill, top
        return self._layout

    def search_plan(self):
        """The plan of the map search out of this object (cached): the
        vertex tuples ``(n, u)`` whose tables it reads, and for each maximal
        simplex of ``compact_layout``, in its order, its degree, its faces
        and its closure plan, with key positions for simplices and indices
        into the first list for vertex tuples: each face as the position of
        its EZ root and the tuple of its EZ word (None when empty), each
        entry ``(m, y, u)`` as ``(where[m][y], u)`` and each check as a
        pair."""
        if self._search_plan is None:
            _, where, _, top = self.compact_layout()
            maps, plans = {}, []
            for n, s in top:
                entries, checks = self.closure(n, s)
                faces = []
                for i in range(n + 1 if n else 0):
                    word, m, y = self.ez_table(n - 1)[self.faces[n][i][s]]
                    faces.append((where[m][y], maps.setdefault(
                        (m, word_tuple(m, word)), len(maps)) if word
                        else None))
                plans.append((n, faces, [
                    (where[m][y], maps.setdefault((n, u), len(maps)))
                    for m, y, u in entries], [
                    tuple(maps.setdefault((n, u), len(maps)) for u in check)
                    for check in checks]))
            self._search_plan = list(maps), plans
        return self._search_plan


def group_positions(keys):
    """Positions grouped by their key, each group in increasing order."""
    out = {}
    for s, key in enumerate(keys):
        out.setdefault(key, []).append(s)
    return out


class SimplicialMap:
    """Degreewise function between TruncSSets of equal cap."""

    def __init__(self, domain, codomain, comp):
        if domain.cap != codomain.cap:
            raise SSetError("cap mismatch between domain and codomain")
        self.domain = domain
        self.codomain = codomain
        self.comp = comp  # comp[n][s]

    def validate(self):
        """Return the list of commutation violations (empty iff simplicial)."""
        bad = []
        X, Y = self.domain, self.codomain
        for d, kind in ((-1, "face"), (1, "degeneracy")):
            lo = int(d < 0)     # d_i acts on degrees 1..cap, s_i on 0..cap-1
            for n in range(lo, X.cap + lo):
                ops = [(X.operator(n, i, d), Y.operator(n, i, d))
                       for i in range(n + 1)]
                to, here = self.comp[n + d], self.comp[n]
                for s in X.simplices(n):
                    for i, (x, y) in enumerate(ops):
                        if to[x[s]] != y[here[s]]:
                            bad.append((kind, n, i, s))
        return bad

    def is_injective(self):
        return all(len(set(c)) == len(c) for c in self.comp)

    def is_bijective(self):
        return self.is_injective() and all(
            len(c) == self.codomain.counts[n] for n, c in enumerate(self.comp))


def identity_map(X):
    return SimplicialMap(X, X, [list(range(X.counts[n]))
                                for n in range(X.cap + 1)])


def invert_bijection(f):
    """Inverse of a degreewise-bijective simplicial map."""
    if not f.is_bijective():
        raise SSetError("map is not a degreewise bijection")
    return descend([f], [identity_map(f.domain)])


def compose(g, f):
    """g after f."""
    if f.codomain is not g.domain and f.codomain.counts != g.domain.counts:
        raise SSetError("composition endpoint mismatch")
    comp = [[g.comp[n][f.comp[n][s]] for s in range(f.domain.counts[n])]
            for n in range(f.domain.cap + 1)]
    return SimplicialMap(f.domain, g.codomain, comp)


def constant_map(X, Y, vertex):
    """The map collapsing X to (iterated degeneracies of) a vertex of Y."""
    return SimplicialMap(X, Y, [[Y.op_table(0, (0,) * (n + 1))[vertex]]
                                * X.counts[n] for n in range(X.cap + 1)])


def classifying_map(X, n, s, delta_n=None):
    """The map Delta[n] -> X picking out the simplex s."""
    D = delta_n if delta_n is not None else standard_simplex(n, X.cap)
    comp = [[X.op_table(n, D.key_of(m, t))[s] for t in D.simplices(m)]
            for m in range(X.cap + 1)]
    return SimplicialMap(D, X, comp)


# -- keyed construction ----------------------------------------------------

class KeyedSSet(TruncSSet):
    """TruncSSet whose degree-n simplices are named by the sorted keys
    ``keys[n]``; ``index[n][key]`` is the id of a key."""

    def __init__(self, cap, keys, index, faces, degens):
        super().__init__(cap, [len(ks) for ks in keys], faces, degens)
        self.keys = keys
        self.index = index

    def key_of(self, n, s):
        return self.keys[n][s]

    def id_of(self, n, key):
        return self.index[n][key]


def operator_tables(cap, table):
    """The face and degeneracy tables of a ``TruncSSet`` of this cap:
    ``faces`` is None in degree 0 and ``table(n, i, -1)``, the table of
    ``d_i`` into degree n - 1, in degrees 1..cap; ``degens`` is ``table(n,
    i, 1)``, that of ``s_i`` into degree n + 1, in degrees 0..cap-1."""
    return ([None] + [[table(n, i, -1) for i in range(n + 1)]
                      for n in range(1, cap + 1)],
            [[table(n, i, 1) for i in range(n + 1)] for n in range(cap)])


def keyed_tables(cap, keys_by_degree, op):
    """The arguments of ``KeyedSSet`` after the cap: each degree's keys
    sorted and indexed, and the operator tables read off the keys, where
    ``op(n, i, d)`` is the function on degree-n keys of ``d_i`` (``d =
    -1``) or ``s_i`` (``d = 1``)."""
    keys = [sorted(keys_by_degree[n]) for n in range(cap + 1)]
    index = [{k: i for i, k in enumerate(ks)} for ks in keys]
    return (keys, index) + operator_tables(cap, lambda n, i, d: list(map(
        index[n + d].__getitem__, map(op(n, i, d), keys[n]))))


# -- generators ------------------------------------------------------------

def _monotone_tuples(m, n):
    """All nondecreasing (m+1)-tuples with values in 0..n."""
    return [tuple(c) for c in
            itertools.combinations_with_replacement(range(n + 1), m + 1)]


def tuple_sset(cap, keys):
    """Simplices are the vertex tuples ``keys[m]``; ``d_i`` drops entry
    ``i`` and ``s_i`` repeats it, so each list must be closed under both."""
    return KeyedSSet(cap, *keyed_tables(
        cap, keys, lambda m, i, d: (lambda k: k[:i] + k[i + 1:]) if d < 0
        else (lambda k: k[:i] + (k[i],) + k[i:])))


def standard_simplex(n, cap):
    """Delta[n] truncated at cap; simplices are monotone vertex tuples."""
    return tuple_sset(cap, [_monotone_tuples(m, n) for m in range(cap + 1)])


@functools.lru_cache(maxsize=None)
def shared_simplex(n, cap):
    """``standard_simplex(n, cap)`` built once per process, with what is
    cached on it (prisms, their layouts, prism plans); do not modify."""
    return standard_simplex(n, cap)


@functools.lru_cache(maxsize=None)
def shared_vertex_map(vmap, k, cap):
    """``delta_map`` along ``vmap`` into ``shared_simplex(k, cap)``, built
    once per process, so that the prism plans along it are built once."""
    return delta_map(shared_simplex(len(vmap) - 1, cap),
                     shared_simplex(k, cap), vmap)


def boundary(n, cap):
    """The boundary of Delta[n]: tuples missing at least one vertex."""
    return tuple_sset(cap, [[t for t in _monotone_tuples(m, n)
                             if len(set(t)) <= n] for m in range(cap + 1)])


def horn(n, k, cap):
    """The horn Lambda^k[n]: union of all faces of Delta[n] except the k-th."""
    if not 0 <= k <= n:
        raise SSetError("horn index out of range")
    full = set(range(n + 1)) - {k}
    return tuple_sset(cap, [[t for t in _monotone_tuples(m, n)
                             if not full <= set(t)] for m in range(cap + 1)])


def discrete(points, cap):
    """The discrete simplicial set on a finite set of points."""
    return tuple_sset(cap, [[(p,) * (m + 1) for p in range(points)]
                            for m in range(cap + 1)])


def walking_iso(cap):
    """The nerve J of the groupoid generated by a single isomorphism.

    The groupoid is indiscrete on two objects, so n-simplices are arbitrary
    vertex sequences in {0,1}; the two alternating sequences are the only
    nondegenerate simplices in each positive degree.
    """
    return tuple_sset(cap, [list(itertools.product((0, 1), repeat=m + 1))
                            for m in range(cap + 1)])


@functools.lru_cache(maxsize=None)
def shared_walking_iso(cap):
    """``walking_iso(cap)`` built once per process, with what is cached on
    it; do not modify."""
    return walking_iso(cap)


def build_generated(kind, cap, n=None, k=None):
    """Named standard objects: delta, boundary, horn, J, point, discrete."""
    if kind == "delta":
        return standard_simplex(n, cap)
    if kind == "boundary":
        return boundary(n, cap)
    if kind == "horn":
        return horn(n, k, cap)
    if kind == "J":
        return walking_iso(cap)
    if kind == "point":
        return standard_simplex(0, cap)
    if kind == "discrete":
        return discrete(n, cap)
    raise SSetError("unknown generator kind %r" % (kind,))


def generated_size(kind, cap, n=0, k=0):
    """The number of simplices in degrees 0..cap of ``build_generated(kind,
    cap, n, k)``, in closed form, so that a value can be sized before it is
    built.  Delta[n] has C(n+m+1, m+1) degree-m simplices, the monotone
    (m+1)-tuples in 0..n; C(m, j) of them have a given (j+1)-set as image.
    The boundary drops the tuples onto [n], the horn also those onto
    [n] minus k."""
    if kind == "point":
        kind, n = "delta", 0
    total = 0
    for m in range(cap + 1):
        if kind == "J":
            total += 2 ** (m + 1)
        elif kind == "discrete":
            total += n
        else:
            total += math.comb(n + m + 1, m + 1)
            if kind in ("boundary", "horn"):
                total -= math.comb(m, n)
            if kind == "horn" and n:
                total -= math.comb(m, n - 1)
    return total


# -- limits and colimits ---------------------------------------------------

def product(X, Y):
    """Degreewise cartesian product with its two projections."""
    if X.cap != Y.cap:
        raise SSetError("product requires equal caps")
    cap = X.cap
    counts = [X.counts[n] * Y.counts[n] for n in range(cap + 1)]

    def table(n, i, d):
        # the pair (x, y) has id x * |Y_n| + y
        width, ys = Y.counts[n + d], Y.operator(n, i, d)
        return [x * width + y for x in X.operator(n, i, d) for y in ys]

    P = TruncSSet(cap, counts, *operator_tables(cap, table))
    pr1 = SimplicialMap(P, X, [[s // Y.counts[n] for s in range(counts[n])]
                               for n in range(cap + 1)])
    pr2 = SimplicialMap(P, Y, [[s % Y.counts[n] for s in range(counts[n])]
                               for n in range(cap + 1)])
    return P, pr1, pr2


def disjoint_union(parts):
    """Coproduct with injections; ids are offset blockwise, so each
    injection is one ``range`` per degree."""
    cap = parts[0].cap
    if any(p.cap != cap for p in parts):
        raise SSetError("disjoint union requires equal caps")
    counts = [sum(p.counts[n] for p in parts) for n in range(cap + 1)]
    offs = []
    run = [0] * (cap + 1)
    for p in parts:
        offs.append(list(run))
        for n in range(cap + 1):
            run[n] += p.counts[n]
    U = TruncSSet(cap, counts, *operator_tables(cap, lambda n, i, d: [
        off[n + d] + t for p, off in zip(parts, offs)
        for t in p.operator(n, i, d)]))
    injections = [SimplicialMap(p, U, [range(off[n], off[n] + p.counts[n])
                                       for n in range(cap + 1)])
                  for p, off in zip(parts, offs)]
    return U, injections


def classes(size, pairs):
    """The equivalence classes of ``range(size)`` generated by ``pairs``.

    Returns each element's class number and the list of least members;
    classes are numbered in the order of their least member, so the result
    does not depend on the order of the pairs.
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # every parent is at most its child, so one ascending pass numbers all
    cls, least = [0] * size, []
    for s, r in enumerate(parent):
        if r == s:
            cls[s] = len(least)
            least.append(s)
        else:
            cls[s] = cls[r]
    return cls, least


def coequalize_disjoint(parts, relations):
    """Quotient of a disjoint union by generated identifications.

    ``relations`` yields tuples ``(part_a, n, simplex_a, part_b, simplex_b)``.
    Returns the quotient with the list of induced maps from the parts.  Each
    class is represented by its least member, so ids follow the union's.
    """
    U, injections = disjoint_union(parts)
    cap = U.cap
    pairs = [[] for _ in range(cap + 1)]
    for (ja, n, sa, jb, sb) in relations:
        pairs[n].append((injections[ja].comp[n][sa],
                         injections[jb].comp[n][sb]))
    cls, reps = zip(*(classes(U.counts[n], pairs[n])
                      for n in range(cap + 1)))

    def table(n, i, d):
        op, to = U.operator(n, i, d), cls[n + d]
        return [to[op[r]] for r in reps[n]]

    Q = TruncSSet(cap, [len(r) for r in reps], *operator_tables(cap, table))
    maps = [SimplicialMap(p, Q, [[cls[n][t] for t in inj.comp[n]]
                                 for n in range(cap + 1)])
            for p, inj in zip(parts, injections)]
    return Q, maps


def descend(quotient_maps, maps):
    """The map out of a quotient: the U with ``U o q == f`` for each
    quotient map q and the matching map f.

    Raises ``SSetError`` when two maps disagree on an identified simplex or
    when the quotient maps do not cover the quotient.  When they do, U is
    simplicial because the maps are.
    """
    if [q.domain.counts for q in quotient_maps] != \
            [f.domain.counts for f in maps]:
        raise SSetError("each quotient map needs one map from its domain")
    Q, T = quotient_maps[0].codomain, maps[0].codomain
    comp = []
    for n in range(Q.cap + 1):
        row = [None] * Q.counts[n]
        for q, f in zip(quotient_maps, maps):
            for t, v in zip(q.comp[n], f.comp[n]):
                if row[t] is None:
                    row[t] = v
                elif row[t] != v:
                    raise SSetError("the maps disagree on the identified "
                                    "simplex %d in degree %d" % (t, n))
        if None in row:
            raise SSetError("the quotient maps miss the simplex %d in "
                            "degree %d" % (row.index(None), n))
        comp.append(row)
    return SimplicialMap(Q, T, comp)


def pushout(f, g):
    """Degreewise pushout of B <-f- A -g-> C with its two injections."""
    A = f.domain
    if g.domain is not A:
        raise SSetError("pushout legs must share their domain")
    P, (inj_b, inj_c) = coequalize_disjoint(
        [f.codomain, g.codomain],
        ((0, n, f.comp[n][a], 1, g.comp[n][a])
         for n in range(A.cap + 1) for a in A.simplices(n)))
    return P, inj_b, inj_c


def sub_sset(X, selected):
    """Subobject on the given per-degree id lists, with its inclusion.

    ``selected[n]`` must be closed under faces and degeneracies.
    """
    sel = [sorted(selected[n]) for n in range(X.cap + 1)]
    index = [{s: i for i, s in enumerate(sn)} for sn in sel]

    def table(n, i, d):
        op, to = X.operator(n, i, d), index[n + d]
        return [to[op[s]] for s in sel[n]]

    S = TruncSSet(X.cap, [len(sn) for sn in sel],
                  *operator_tables(X.cap, table))
    inc = SimplicialMap(S, X, [list(sel[n]) for n in range(X.cap + 1)])
    return S, inc


def restrict(X, cap):
    """Truncate further, to a smaller cap."""
    if cap > X.cap:
        raise TruncationError("cannot raise the cap of a truncated object")
    return TruncSSet(cap, X.counts[:cap + 1], X.faces[:cap + 1],
                     X.degens[:cap])


# -- map enumeration and exponentials --------------------------------------

def _search(A, B, candidate_filter=None, limit=None):
    """Depth-first search for the simplicial maps A -> B, as compact keys
    (see ``compact_layout``), in lexicographic order of the values of the
    chosen simplices; it stops once ``limit`` keys are found.

    A map is determined by its values on the nondegenerate simplices of A.
    Only the maximal ones (see ``compact_layout``) are chosen, from the top
    degree down, in id order within a degree; every other one lies in the
    closure of a chosen one.  Assigning ``b`` to a chosen ``s`` of degree n
    fixes its whole closure at once (``A.closure``): each entry ``(m, y,
    u)`` reads ``B.op_table(n, u)`` at ``b`` and takes that value, or
    compares it with the value ``y`` already has, and each degenerate face
    compares its two reads.  A conflict undoes the assignments on the
    trail.  A chosen simplex tries the simplices of ``B`` with its whole
    boundary when every face is fixed (``by_faces``), else those with one
    of its fixed faces, the one with the fewest, and all of ``B_n`` when no
    face is fixed.  The optional ``candidate_filter(n, s, b)`` restricts
    the value of every nondegenerate ``s``, chosen or in a closure.  The
    closure plans, EZ table and layout of ``A`` are cached on ``A``, so a
    prism ``X.prism(n)``, built once per ``X``, is planned once for every
    search out of it.
    """
    layout = A.compact_layout()[0]
    maps, plan = A.search_plan()
    tables = [B.op_table(n, u) for n, u in maps]
    plans = [(n, [(p, None if k is None else tables[k]) for p, k in faces],
              [(p, tables[k]) for p, k in entries],
              [(tables[k], tables[j]) for k, j in checks])
             for n, faces, entries, checks in plan]
    val, trail, results = [None] * len(layout), [], []

    def fix(b, entries, checks):
        """Assign b and its closure; False on a conflict."""
        for v, w in checks:
            if v[b] != w[b]:
                return False
        for p, table in entries:
            z = table[b]
            if val[p] is None:
                if candidate_filter is not None and \
                        not candidate_filter(*layout[p], z):
                    return False
                val[p] = z
                trail.append(p)
            elif val[p] != z:
                return False
        return True

    def candidates(n, faces):
        known = {}
        for i, (p, read) in enumerate(faces):
            if val[p] is not None:
                known[i] = val[p] if read is None else read[val[p]]
        if not known:
            return range(B.counts[n])
        if len(known) == n + 1:
            return B.by_faces(n, range(n + 1)).get(
                tuple(known[i] for i in range(n + 1)), ())
        return min((B.by_faces(n, (i,)).get(v, ()) for i, v in known.items()),
                   key=len)

    def choose(idx):
        if idx == len(plans):
            results.append(tuple(val))
            return len(results) == limit
        n, faces, entries, checks = plans[idx]
        for b in candidates(n, faces):
            mark = len(trail)
            if fix(b, entries, checks) and choose(idx + 1):
                return True
            for p in trail[mark:]:
                val[p] = None
            del trail[mark:]
        return False

    choose(0)
    return results


def expand_key(A, B, key):
    """The full value table, one list per degree, of the map A -> B with
    the compact key ``key``: each degenerate ``s_j t`` takes ``s_j`` of the
    value at ``t``."""
    order, _, fill, _ = A.compact_layout()
    table = [[None] * c for c in A.counts]
    for (n, s), b in zip(order, key):
        table[n][s] = b
    for n, s, j, t in fill:
        table[n][s] = B.degens[n - 1][j][table[n - 1][t]]
    return table


def enumerate_maps(A, B, candidate_filter=None):
    """All simplicial maps A -> B as full value tables, in the order of
    ``_search``."""
    return [expand_key(A, B, k) for k in _search(A, B, candidate_filter)]


def first_map(A, B, candidate_filter=None):
    """The first table ``enumerate_maps`` would list, or None; the search
    stops there."""
    found = _search(A, B, candidate_filter, limit=1)
    return expand_key(A, B, found[0]) if found else None


def compact_plan(P, Q, image):
    """Precomposition ``f -> f o g`` on compact keys, for the maps f out of
    P and a map ``g: Q -> P`` with ``g(t) = image(n, t)``: for each
    nondegenerate ``t`` of Q, in key order, the position in f's key of the
    nondegenerate simplex under ``g(t)`` and the EZ word that gives ``g(t)``
    back.  Returned as the positions and, per degree m and nonempty word,
    ``(m, word_tuple(m, word))`` with the entries that take it; see
    ``plan_ids``."""
    where = P.compact_layout()[1]
    ez = [P.ez_table(n) for n in range(P.cap + 1)]
    positions, words = [], {}
    for n, t in Q.compact_layout()[0]:
        word, m, y = ez[n][image(n, t)]
        if word:
            words.setdefault((m, word_tuple(m, word)), []).append(
                len(positions))
        positions.append(where[m][y])
    return positions, list(words.items())


def plan_ids(plan, keys, Y, index):
    """The ids in ``index`` of the compact keys of ``f o g`` for the compact
    keys ``keys`` of maps ``f`` into ``Y`` of one degree, by a plan of
    ``compact_plan``: the entries with an EZ word read their columns
    through one ``Y.op_table`` per degree and word; see ``column_ids``."""
    positions, words = plan
    reads = [None] * len(positions)
    for (m, u), entries in words:
        read = Y.op_table(m, u)
        for i in entries:
            reads[i] = read
    return column_ids(keys, positions, reads, index)


def column_ids(keys, positions, reads, index):
    """The ids in ``index`` of the keys whose entry i is entry
    ``positions[i]`` of each key in ``keys``, read through the table
    ``reads[i]`` unless it is None: built a column at a time, the columns
    zipped into the keys as they are looked up, so none is kept."""
    if len(positions) > 1 and reads.count(None) == len(reads):
        return list(map(index.__getitem__,
                        map(operator.itemgetter(*positions), keys)))
    columns = [map(operator.itemgetter(p), keys) if read is None else
               map(read.__getitem__, map(operator.itemgetter(p), keys))
               for p, read in zip(positions, reads)]
    return list(map(index.__getitem__,
                    zip(*columns) if columns else [()] * len(keys)))


class Exponential(KeyedSSet):
    """Internal mapping object [X => Y]: degree-n simplices are simplicial
    maps Delta[n] x X -> Y.

    A simplex is keyed by its compact key, the values of its map on the
    nondegenerate simplices of the prism ``(P, pr1, pr2) = X.prism(n)`` by
    degree and then by id (``P.compact_layout()``).  Two maps first differ
    at a nondegenerate simplex, so the sorted compact keys give the ids that
    sorted full value tables would.  ``table(n, s)`` expands a key to its
    full value table, ``value(n, s, d, p)`` reads one entry, ``id_of(n,
    table)`` takes a full table and ``id_by_values(n, value)`` the values on
    the nondegenerate simplices.  The faces and degeneracies precompose by
    the plans ``X.prism_plan``, cached on X with its prisms, and so does
    ``precompose``; with ``postcompose`` and ``transposed`` it gives the
    maps to other mapping objects.  Each applies its plan to all the keys
    of a degree at once, a column at a time (``plan_ids``).

    ``admissible(prism, m, s, b)``, when given, keeps only the maps whose
    value at every nondegenerate degree-m simplex ``s`` of the prism is a
    ``b`` it accepts; the admitted maps must be closed under the simplicial
    operators.

    Exact only under the truncation validity bound
    ``cap_out + nondeg_dim(X) <= cap(Y)``; violating it raises
    ``TruncationError`` rather than silently truncating.
    """

    def __init__(self, Y, X, cap_out, admissible=None):
        if X.cap != Y.cap:
            raise SSetError("Exponential requires equal caps")
        if cap_out + X.nondeg_dim() > Y.cap:
            raise TruncationError(
                "Exponential(cap_out=%d) with nondeg_dim(X)=%d needs cap(Y)"
                " >= %d, have %d" % (cap_out, X.nondeg_dim(),
                                     cap_out + X.nondeg_dim(), Y.cap))
        self.arg, self.target = X, Y
        self.prisms = [X.prism(n) for n in range(cap_out + 1)]
        self.deltas = [pr1.codomain for _, pr1, _ in self.prisms]
        keys = []
        for prism in self.prisms:
            filt = None if admissible is None else \
                functools.partial(admissible, prism)
            keys.append(sorted(_search(prism[0], Y, filt)))
        index = [dict(zip(ks, range(len(ks)))) for ks in keys]
        super().__init__(cap_out, keys, index, *operator_tables(
            cap_out, lambda n, i, d: plan_ids(X.prism_plan(n, (
                coface_tuple if d < 0 else codegen_tuple)(n, i)), keys[n],
                Y, index[n + d])))

    def table(self, n, s):
        """The full value table of the map ``s``, a tuple per degree."""
        return tuple(map(tuple, expand_key(self.prisms[n][0], self.target,
                                           self.keys[n][s])))

    def value(self, n, s, d, p):
        """The value of the map ``s`` at the degree-d simplex ``p`` of its
        prism."""
        P = self.prisms[n][0]
        word, m, y = P.ez_table(d)[p]
        return self.target.op_table(m, word_tuple(m, word))[
            self.keys[n][s][P.compact_layout()[1][m][y]]]

    def id_by_values(self, n, value):
        """The id of the map whose value at each nondegenerate degree-d
        simplex ``p`` of its prism is ``value(d, p)``; ``KeyError`` when it
        is not a simplex of this object."""
        order = self.prisms[n][0].compact_layout()[0]
        return self.index[n][tuple([value(d, p) for d, p in order])]

    def id_of(self, n, table):
        """The id of the map with this full value table; ``KeyError`` when
        it is not a simplex of this object."""
        s = self.id_by_values(n, lambda d, p: table[d][p])
        if self.table(n, s) != tuple(map(tuple, table)):
            raise KeyError("not a simplex of this mapping object")
        return s

    def precompose(self, g, E):
        """The map ``[X => Y] -> E = [X' => Y]`` along ``id x g``, for
        ``g: X' -> X``; its plans are cached on X per g."""
        return SimplicialMap(self, E, [plan_ids(
            self.arg.prism_plan(n, tuple(range(n + 1)), g), self.keys[n],
            self.target, E.index[n]) for n in range(self.cap + 1)])

    def postcompose(self, f, E):
        """The map ``[X => Y] -> E = [X => Y']`` along ``f: Y -> Y'``, which
        maps each entry of a compact key by f in its degree."""
        comp = []
        for n in range(self.cap + 1):
            order = self.prisms[n][0].compact_layout()[0]
            comp.append(column_ids(self.keys[n], range(len(order)),
                                   [f.comp[d] for d, _ in order], E.index[n]))
        return SimplicialMap(self, E, comp)

    def transposed(self, m, V):
        """For ``[Delta[n] => Y]``, each degree-m simplex read as a
        degree-n simplex of ``V = [Delta[m] => Y]`` (a list of V's ids):
        its map precomposed with the swap ``Delta[n] x Delta[m] -> Delta[m]
        x Delta[n]`` of the prism's factors."""
        n = self.arg.counts[0] - 1
        (P, _, _), (Q, q1, q2) = self.prisms[m], V.prisms[n]
        plan = compact_plan(P, Q, lambda d, t: q2.comp[d][t]
                            * self.arg.counts[d] + q1.comp[d][t])
        return plan_ids(plan, self.keys[m], self.target, V.index[n])


def word_tuple(m, word):
    """The degeneracy ``s_{word[0]} .. s_{word[-1]}`` (innermost last, as in
    ``ez_table``) on degree m as a vertex tuple ``[m + len(word)] -> [m]``:
    ``s_j`` repeats the vertex at position j."""
    u = tuple(range(m + 1))
    for j in reversed(word):
        u = u[:j + 1] + u[j:]
    return u


def coface_tuple(n, i):
    """d^i: [n-1] -> [n] as a vertex tuple."""
    return tuple(v for v in range(n + 1) if v != i)


def codegen_tuple(n, i):
    """s^i: [n+1] -> [n] as a vertex tuple."""
    return tuple(v if v <= i else v - 1 for v in range(n + 2))


def delta_map(D_from, D_to, vmap):
    """Map of tuple-keyed objects (see ``tuple_sset``) induced by a vertex
    map."""
    comp = [[D_to.id_of(m, tuple(vmap[v] for v in D_from.key_of(m, t)))
             for t in D_from.simplices(m)]
            for m in range(D_from.cap + 1)]
    return SimplicialMap(D_from, D_to, comp)
