"""Bisimplicial truncations: horizontal x vertical simplex tables.

Entry (n, m) holds the degree-(n,m) simplices; horizontal operators move n,
vertical operators move m.  Rows and columns are ordinary TruncSSets, which
lets the one-directional audits reuse the simplicial machinery.
"""

from __future__ import annotations

from .sset import TruncSSet


class BiTruncSSet:
    def __init__(self, hcap, vcap, counts, hfaces, hdegens, vfaces, vdegens):
        self.hcap = hcap
        self.vcap = vcap
        self.counts = counts          # counts[n][m]
        self.hfaces = hfaces          # hfaces[n][m][i][s], 1<=n, 0<=i<=n
        self.hdegens = hdegens        # hdegens[n][m][i][s], n<hcap
        self.vfaces = vfaces          # vfaces[n][m][j][s], 1<=m, 0<=j<=m
        self.vdegens = vdegens        # vdegens[n][m][j][s], m<vcap

    def hface(self, n, m, i, s):
        return self.hfaces[n][m][i][s]

    def hdegen(self, n, m, i, s):
        return self.hdegens[n][m][i][s]

    def vface(self, n, m, j, s):
        return self.vfaces[n][m][j][s]

    def vdegen(self, n, m, j, s):
        return self.vdegens[n][m][j][s]

    def row(self, m):
        """The horizontal simplicial set at fixed vertical degree m."""
        counts = [self.counts[n][m] for n in range(self.hcap + 1)]
        faces = [None] + [[self.hfaces[n][m][i] for i in range(n + 1)]
                          for n in range(1, self.hcap + 1)]
        degens = [[self.hdegens[n][m][i] for i in range(n + 1)]
                  for n in range(self.hcap)]
        return TruncSSet(self.hcap, counts, faces, degens)

    def column(self, n):
        """The vertical simplicial set at fixed horizontal degree n."""
        counts = [self.counts[n][m] for m in range(self.vcap + 1)]
        faces = [None] + [[self.vfaces[n][m][j] for j in range(m + 1)]
                          for m in range(1, self.vcap + 1)]
        degens = [[self.vdegens[n][m][j] for j in range(m + 1)]
                  for m in range(self.vcap)]
        return TruncSSet(self.vcap, counts, faces, degens)


def i1_star(B):
    """Restriction to the zeroth row (vertical degree 0)."""
    return B.row(0)


def box_product(K, L):
    """The external product (K box L)(n, m) = K_n x L_m."""
    hcap, vcap = K.cap, L.cap
    counts = [[K.counts[n] * L.counts[m] for m in range(vcap + 1)]
              for n in range(hcap + 1)]

    def pid(n, m, x, y):
        return x * L.counts[m] + y

    hfaces = [None] + [
        [[[pid(n - 1, m, K.faces[n][i][s // L.counts[m]], s % L.counts[m])
           for s in range(counts[n][m])] for i in range(n + 1)]
         for m in range(vcap + 1)]
        for n in range(1, hcap + 1)]
    hdegens = [
        [[[pid(n + 1, m, K.degens[n][i][s // L.counts[m]], s % L.counts[m])
           for s in range(counts[n][m])] for i in range(n + 1)]
         for m in range(vcap + 1)]
        for n in range(hcap)]
    vfaces = [[None] + [
        [[pid(n, m - 1, s // L.counts[m], L.faces[m][j][s % L.counts[m]])
          for s in range(counts[n][m])] for j in range(m + 1)]
        for m in range(1, vcap + 1)]
        for n in range(hcap + 1)]
    vdegens = [[
        [[pid(n, m + 1, s // L.counts[m], L.degens[m][j][s % L.counts[m]])
          for s in range(counts[n][m])] for j in range(m + 1)]
        for m in range(vcap)]
        for n in range(hcap + 1)]
    return BiTruncSSet(hcap, vcap, counts, hfaces, hdegens, vfaces, vdegens)
