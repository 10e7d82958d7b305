"""Certification engine: identity audits, iso verification, truncated horn
lifting and coCartesian audits.

Every check is exhaustive up to its stated bound and returns a replayable
``Certificate``; a PASS made under a truncation records the bound and claims
nothing beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sset import TruncationError


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
    """Identity audit in both directions plus the mixed identities: faces
    commute with faces, faces with degeneracies and degeneracies with
    degeneracies across the two directions."""
    rows = [check_simplicial_identities(B.row(m), "%s-row%d" % (subject, m))
            for m in range(B.vcap + 1)]
    cols = [check_simplicial_identities(B.column(n), "%s-col%d" % (subject, n))
            for n in range(B.hcap + 1)]
    for c in rows + cols:
        if not c.ok:
            return c
    # every horizontal operator commutes with every vertical one; the
    # face/face family keeps its bare (n, m, i, j, s) witness
    families = [((), B.hfaces, B.vfaces), (("dh-sv",), B.hfaces, B.vdegens),
                (("dv-sh",), B.hdegens, B.vfaces),
                (("sh-sv",), B.hdegens, B.vdegens)]
    for prefix, hops, vops in families:
        dn = -1 if hops is B.hfaces else 1
        dm = -1 if vops is B.vfaces else 1
        for n in range(B.hcap + 1):
            for m in range(B.vcap + 1):
                if not (0 <= n + dn <= B.hcap and 0 <= m + dm <= B.vcap):
                    continue
                for i in range(n + 1):
                    for j in range(m + 1):
                        h, v = hops[n][m][i], vops[n][m][j]
                        h2, v2 = hops[n][m + dm][i], vops[n + dn][m][j]
                        for s in range(B.counts[n][m]):
                            if h2[v[s]] != v2[h[s]]:
                                return Certificate(
                                    "bi-identities", subject, "FAIL",
                                    witness=prefix + (n, m, i, j, s))
    return Certificate("bi-identities", subject, "PASS",
                       bound=max(B.hcap, B.vcap))


# -- horn machinery ----------------------------------------------------------

def _horn_maps(X, n, skip, fixed_edge=None):
    """All tuples (y_i)_{i != skip} of (n-1)-simplices gluing to a horn map.

    Compatibility: d_i(y_j) = d_{j-1}(y_i) for i < j, both != skip.  When
    ``fixed_edge`` is given, every facet containing the 01-edge (facets with
    index >= 2) must restrict to it on vertices {0,1}.
    """
    idxs = [i for i in range(n + 1) if i != skip]
    results = []
    partial = {}
    face_index = X.face_index(n - 1)
    if fixed_edge is not None:
        edge_ok = [e == fixed_edge for e in X.op_table(n - 1, (0, 1))]

    def candidates(j, chosen):
        """Simplices y with d_i(y) = d_{j-1}(partial[i]) for every chosen
        i (all below j), read from the shortest face-index bucket."""
        faces = X.faces[n - 1]
        wants = [(i, faces[j - 1][partial[i]]) for i in chosen]
        best = None
        for i, want in wants:
            lst = face_index[i].get(want, [])
            if best is None or len(lst) < len(best):
                best = lst
        out = []
        for y in X.simplices(n - 1) if best is None else best:
            if fixed_edge is not None and j >= 2 and not edge_ok[y]:
                continue
            for i, want in wants:
                if faces[i][y] != want:
                    break
            else:
                out.append(y)
        return out

    def choose(pos):
        if pos == len(idxs):
            results.append(dict(partial))
            return
        j = idxs[pos]
        for y in candidates(j, idxs[:pos]):
            partial[j] = y
            choose(pos + 1)
            del partial[j]

    choose(0)
    return results


def _matches(X, n, facets, skip, index):
    """Simplices x with d_i(x) = facets[i] for all i != skip."""
    pick = min((i for i in facets), key=lambda i: len(
        index[i].get(facets[i], [])))
    return [x for x in index[pick].get(facets[pick], [])
            if all(X.faces[n][i][x] == facets[i]
                   for i in facets if i != pick)]


def inner_horn_lifts(p, ncap, subject="inner-fibration"):
    """Exhaustive inner-horn lifting audit for p: X -> S up to ncap."""
    X, S = p.domain, p.codomain
    if ncap > X.cap:
        raise TruncationError("ncap=%d exceeds the truncation cap=%d"
                              % (ncap, X.cap))
    checked = 0
    for n in range(2, ncap + 1):
        x_index = X.face_index(n)
        s_index = S.face_index(n)
        for k in range(1, n):
            for facets in _horn_maps(X, n, k):
                base_facets = {i: p.comp[n - 1][y] for i, y in facets.items()}
                for b in _matches(S, n, base_facets, k, s_index):
                    checked += 1
                    lifts = [x for x in _matches(X, n, facets, k, x_index)
                             if p.comp[n][x] == b]
                    if not lifts:
                        return Certificate("inner-horn-lifts", subject,
                                           "FAIL", bound=ncap,
                                           witness=(n, k, sorted(
                                               facets.items()), b))
    return Certificate("inner-horn-lifts", subject, "PASS", bound=ncap,
                       witness=("squares", checked))


def cocartesian_edge(p, e, ncap):
    """Left-horn lifting audit for one edge: for every n <= ncap, every
    Lambda^0[n] square whose initial edge is e admits a lift."""
    X, S = p.domain, p.codomain
    subject = "edge-%d" % e
    checked = 0
    for n in range(2, ncap + 1):
        x_index = X.face_index(n)
        s_index = S.face_index(n)
        for facets in _horn_maps(X, n, 0, fixed_edge=e):
            base_facets = {i: p.comp[n - 1][y] for i, y in facets.items()}
            for b in _matches(S, n, base_facets, 0, s_index):
                checked += 1
                lifts = [x for x in _matches(X, n, facets, 0, x_index)
                         if p.comp[n][x] == b]
                if not lifts:
                    return Certificate("cocartesian-edge", subject, "FAIL",
                                       bound=n,
                                       witness=(n, sorted(facets.items()), b))
    return Certificate("cocartesian-edge", subject, "PASS", bound=ncap,
                       witness=("squares", checked))


def cocartesian_fibration(p, ncap, subject="fibration"):
    """Inner fibration plus existence of a coCartesian lift over every base
    edge and source vertex, all up to ncap."""
    inner = inner_horn_lifts(p, ncap, subject)
    if not inner.ok:
        return inner
    X, S = p.domain, p.codomain
    for f in S.simplices(1):
        a = S.faces[1][1][f]
        for xbar in X.simplices(0):
            if p.comp[0][xbar] != a:
                continue
            found = None
            for ebar in X.simplices(1):
                if p.comp[1][ebar] != f or X.faces[1][1][ebar] != xbar:
                    continue
                if cocartesian_edge(p, ebar, ncap).ok:
                    found = ebar
                    break
            if found is None:
                return Certificate("cocartesian-fibration", subject, "FAIL",
                                   bound=ncap, witness=("no-lift", f, xbar))
    return Certificate("cocartesian-fibration", subject, "PASS", bound=ncap)
