"""Certification engine: identity audits, iso verification, truncated horn
lifting and coCartesian audits.

Every check is exhaustive up to its stated bound and returns a replayable
``Certificate``; a PASS made under a truncation records the bound and claims
nothing beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from typing import Optional

from .sset import SSetError, TruncationError


@dataclass
class Certificate:
    kind: str
    subject: str
    verdict: str                 # "PASS" | "FAIL"
    bound: Optional[int] = None
    witness: object = None

    @property
    def ok(self):
        return self.verdict == "PASS"

    def line(self):
        extra = "" if self.bound is None else " bound=%d" % self.bound
        w = "" if self.witness is None or self.ok else \
            " witness=%r" % (self.witness,)
        subject = " " + self.subject if self.subject else ""
        return "%s %s%s%s%s" % (self.verdict, self.kind, subject, extra, w)


def check_simplicial_identities(X, subject="sset"):
    """Verify all five simplicial identity families on every simplex."""
    for n in range(2, X.cap + 1):
        F, Fm = X.faces[n], X.faces[n - 1]
        for j in range(n + 1):
            for i in range(j):
                # d_i d_j = d_{j-1} d_i  (i < j)
                fj, fi = F[j], F[i]
                gi, gjm = Fm[i], Fm[j - 1]
                for s in X.simplices(n):
                    if gi[fj[s]] != gjm[fi[s]]:
                        return Certificate("identities", subject, "FAIL",
                                           witness=("dd", n, i, j, s))
    for n in range(X.cap):
        D = X.degens[n]
        if n + 1 <= X.cap - 1:
            Dp = X.degens[n + 1]
            for j in range(n + 1):
                for i in range(j + 1):
                    # s_i s_j = s_{j+1} s_i  (i <= j)
                    for s in X.simplices(n):
                        if Dp[i][D[j][s]] != Dp[j + 1][D[i][s]]:
                            return Certificate("identities", subject, "FAIL",
                                               witness=("ss", n, i, j, s))
        Fp = X.faces[n + 1]
        for j in range(n + 1):
            for i in range(n + 2):
                for s in X.simplices(n):
                    lhs = Fp[i][D[j][s]]
                    if i < j:
                        rhs = X.degens[n - 1][j - 1][X.faces[n][i][s]]
                    elif i in (j, j + 1):
                        rhs = s
                    else:
                        rhs = X.degens[n - 1][j][X.faces[n][i - 1][s]]
                    if lhs != rhs:
                        return Certificate("identities", subject, "FAIL",
                                           witness=("ds", n, i, j, s))
    return Certificate("identities", subject, "PASS", bound=X.cap)


def verify_iso_map(f, g, subject="iso"):
    """Certify that f and g are mutually inverse simplicial isomorphisms."""
    if f.domain is not g.codomain or f.codomain is not g.domain:
        return Certificate("iso", subject, "FAIL", witness="endpoint mismatch")
    for h, name in ((f, "fwd"), (g, "bwd")):
        bad = h.validate()
        if bad:
            return Certificate("iso", subject, "FAIL",
                               witness=(name + " not simplicial", bad[0]))
    for n in range(f.domain.cap + 1):
        for s in f.domain.simplices(n):
            if g.comp[n][f.comp[n][s]] != s:
                return Certificate("iso", subject, "FAIL",
                                   witness=("gf", n, s))
        for s in f.codomain.simplices(n):
            if f.comp[n][g.comp[n][s]] != s:
                return Certificate("iso", subject, "FAIL",
                                   witness=("fg", n, s))
    return Certificate("iso", subject, "PASS", bound=f.domain.cap)


def check_bisimplicial(B, subject="bisset"):
    """Identity audit of every row and column plus the mixed identities:
    faces commute with faces, faces with degeneracies and degeneracies with
    degeneracies across the two directions."""
    rows = [check_simplicial_identities(R, "%s-row%d" % (subject, m))
            for m, R in enumerate(B.rows)]
    cols = [check_simplicial_identities(C, "%s-col%d" % (subject, n))
            for n, C in enumerate(B.columns)]
    for c in rows + cols:
        if not c.ok:
            return c
    # every horizontal operator (in a row, moving n by dn) commutes with
    # every vertical one (in a column, moving m by dm); the face/face
    # family keeps its bare (n, m, i, j, s) witness
    for prefix, dn, dm in (((), -1, -1), (("dh-sv",), -1, 1),
                           (("dv-sh",), 1, -1), (("sh-sv",), 1, 1)):
        for n in range(max(0, -dn), B.hcap + 1 - max(0, dn)):
            for m in range(max(0, -dm), B.vcap + 1 - max(0, dm)):
                R, R2 = B.rows[m], B.rows[m + dm]
                C, C2 = B.columns[n], B.columns[n + dn]
                hs = [(R.operator(n, i, dn), R2.operator(n, i, dn))
                      for i in range(n + 1)]
                vs = [(C.operator(m, j, dm), C2.operator(m, j, dm))
                      for j in range(m + 1)]
                for i, (h, h2) in enumerate(hs):
                    for j, (v, v2) in enumerate(vs):
                        for s in range(len(h)):
                            if h2[v[s]] != v2[h[s]]:
                                return Certificate(
                                    "bi-identities", subject, "FAIL",
                                    witness=prefix + (n, m, i, j, s))
    return Certificate("bi-identities", subject, "PASS",
                       bound=max(B.hcap, B.vcap))


# -- horn machinery ----------------------------------------------------------

def _horn_maps(X, n, skip, first=None):
    """All horn maps ``(y_i)_{i != skip}`` of (n-1)-simplices, as one id
    column per facet ``i != skip``, in increasing ``i``: row r of the
    columns is one horn, and the rows come in no set order.

    Compatibility: d_i(y_j) = d_{j-1}(y_i) for i < j, both != skip.  The
    facets are joined one at a time for all partial horns at once: each new
    facet is looked up in the ``by_faces`` grouping keyed by every face
    that the facets already chosen give it, and the columns are re-indexed
    only where some partial horn has no extension or several.  An inner
    horn starts from facets 0 and n.  A Lambda^0 horn starts from facet 2,
    taken from ``first`` (all of ``X_{n-1}`` when None), and a horn is
    kept only when each later facet that contains the 01-edge (index >= 3)
    restricts on vertices {0,1} to the 01-edge of facet 2.
    """
    faces = X.faces[n - 1]
    idxs = [i for i in range(n + 1) if i != skip]
    order = ([2] + [i for i in idxs if i != 2] if skip == 0
             else [0, n] + idxs[1:-1])
    cols = [list(X.simplices(n - 1)) if first is None else first]
    for pos in range(1, n):
        j = order[pos]
        # (a, q, table): d_a(y_j) = table[y_c] for the chosen c = order[q],
        # as d_c(y_j) = d_{j-1}(y_c) for c < j and d_{c-1}(y_j) = d_j(y_c)
        given = sorted((c, q, faces[j - 1]) if c < j else (c - 1, q, faces[j])
                       for q, c in enumerate(order[:pos]))
        wants = [map(t.__getitem__, cols[q]) for _, q, t in given]
        found = list(map(X.by_faces(n - 1, [a for a, _, _ in given]).get,
                         wants[0] if len(wants) == 1 else zip(*wants),
                         repeat(())))
        new = [y for ys in found for y in ys]
        if len(new) != len(cols[0]) or not all(found):
            # some partial horn has no or several extensions
            keep = [r for r, ys in enumerate(found) for _ in ys]
            cols = [list(map(col.__getitem__, keep)) for col in cols]
        cols.append(new)
    if skip == 0:
        # facets 3.. contain the 01-edge too: whole columns are compared
        # with facet 2's, and the rows are read only when one differs
        edges = X.op_table(n - 1, (0, 1))
        want = list(map(edges.__getitem__, cols[0]))
        if any(list(map(edges.__getitem__, col)) != want for col in cols[2:]):
            keep = [r for r, row in enumerate(zip(*cols[2:]))
                    if all(edges[y] == want[r] for y in row)]
            cols = [list(map(col.__getitem__, keep)) for col in cols]
    return [cols[order.index(i)] for i in idxs]


def _unlifted(p, n, k, cols, tops=None):
    """Decide the (n, k) squares of ``p`` over the horns in ``cols`` (see
    ``_horn_maps``): each horn with each base of its image, from the
    codomain's ``by_faces``.  A square has a lift when it lies in the set
    of ``(horn_k x, p x)`` over the n-simplices ``tops`` (all when None).
    Returns the number of squares, the least square with no lift in the
    order of (horn, base) as a witness ``(horn, b)`` or None, and the list
    of every square with no lift, its horn a tuple of ids in increasing
    facet order."""
    X, idxs = p.domain, [i for i in range(n + 1) if i != k]
    top, below = p.comp[n], p.comp[n - 1]
    bases_of = p.codomain.by_faces(n, idxs)
    found = list(map(bases_of.get,
                     zip(*[map(below.__getitem__, col) for col in cols]),
                     repeat(())))
    tops = X.simplices(n) if tops is None else tops
    lifted = set(zip(zip(*[map(X.faces[n][i].__getitem__, tops)
                           for i in idxs]), map(top.__getitem__, tops)))
    # the squares: each horn zipped with each of its bases
    missing = list(filterfalse(lifted.__contains__, chain.from_iterable(
        map(zip, map(repeat, zip(*cols)), found))))
    if not missing:
        return sum(map(len, found)), None, missing
    h, b = min(missing)
    return sum(map(len, found)), (list(zip(idxs, h)), b), missing


def inner_horn_lifts(p, ncap, subject="inner-fibration"):
    """Exhaustive inner-horn lifting audit for p: X -> S up to ncap."""
    if ncap > p.domain.cap:
        raise TruncationError("ncap=%d exceeds the truncation cap=%d"
                              % (ncap, p.domain.cap))
    checked = 0
    for n in range(2, ncap + 1):
        for k in range(1, n):
            count, bad, _ = _unlifted(p, n, k, _horn_maps(p.domain, n, k))
            if bad:
                return Certificate("inner-horn-lifts", subject, "FAIL",
                                   bound=ncap, witness=(n, k) + bad)
            checked += count
    return Certificate("inner-horn-lifts", subject, "PASS", bound=ncap,
                       witness=("squares", checked))


def cocartesian_edge(p, e, ncap):
    """Left-horn lifting audit for one edge: for every n <= ncap, every
    Lambda^0[n] square whose initial edge is e admits a lift.  Only the
    simplices whose 01-edge is e are read, for the horns and the lifts:
    those of degree n are the ones whose last face is such a simplex of
    degree n - 1, so the 01-edge is ``d_2 .. d_n``, as in ``op_table``."""
    X = p.domain
    if ncap > X.cap:
        raise TruncationError("ncap=%d exceeds the truncation cap=%d"
                              % (ncap, X.cap))
    if not 0 <= e < X.counts[1]:
        raise SSetError("edge %r is not a 1-simplex of the total space" % e)
    checked, below = 0, [e]
    for n in range(2, ncap + 1):
        tops = [y for z in below for y in X.by_faces(n, (n,)).get(z, ())]
        count, bad, _ = _unlifted(p, n, 0, _horn_maps(X, n, 0, below), tops)
        if bad:
            return Certificate("cocartesian-edge", "edge-%d" % e, "FAIL",
                               bound=n, witness=(n,) + bad)
        checked, below = checked + count, tops
    return Certificate("cocartesian-edge", "edge-%d" % e, "PASS",
                       bound=ncap, witness=("squares", checked))


def cocartesian_fibration(p, ncap, subject="fibration"):
    """Inner fibration plus, for every base edge f and vertex xbar over its
    source, a coCartesian edge out of xbar over f; all up to ncap.  Every
    edge is decided at once: one Lambda^0[n] join over all of X_{n-1} per
    degree n, and the edges that are not coCartesian are the 01-edges
    (those of facet 2) of the squares with no lift."""
    inner = inner_horn_lifts(p, ncap, subject)
    if not inner.ok:
        return inner
    X, S = p.domain, p.codomain
    bad = set()
    for n in range(2, ncap + 1):
        _, _, missing = _unlifted(p, n, 0, _horn_maps(X, n, 0))
        bad.update(map(X.op_table(n - 1, (0, 1)).__getitem__,
                       (h[1] for h, _ in missing)))
    out_of = X.by_faces(1, (1,))
    for f in S.simplices(1):
        for xbar in X.simplices(0):
            if p.comp[0][xbar] == S.faces[1][1][f] and not any(
                    p.comp[1][ebar] == f and ebar not in bad
                    for ebar in out_of.get(xbar, ())):
                return Certificate("cocartesian-fibration", subject, "FAIL",
                                   bound=ncap, witness=("no-lift", f, xbar))
    return Certificate("cocartesian-fibration", subject, "PASS", bound=ncap)
