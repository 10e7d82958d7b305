"""Bisimplicial truncations, given by their rows and columns.

A bisimplicial set is a simplicial object in simplicial sets (Goerss and
Jardine, IV.1).  Row m holds the degree-(n, m) simplices for every n with
the horizontal operators, which move n; column n holds them for every m
with the vertical operators, which move m.  A degree-(n, m) simplex has
the same id in degree n of row m as in degree m of column n.
"""

from __future__ import annotations

from .sset import SSetError, discrete, product


class BiTruncSSet:
    def __init__(self, rows, columns):
        self.rows = rows                # rows[m], a TruncSSet of cap hcap
        self.columns = columns          # columns[n], one of cap vcap
        self.hcap, self.vcap = len(columns) - 1, len(rows) - 1
        if any(R.cap != self.hcap for R in rows) or any(
                C.cap != self.vcap or C.counts != [R.counts[n] for R in rows]
                for n, C in enumerate(columns)):
            raise SSetError("the rows and columns disagree on their counts")

    @property
    def counts(self):
        """``counts[n][m]``, the number of degree-(n, m) simplices."""
        return [C.counts for C in self.columns]


def i1_star(B):
    """Restriction to the zeroth row (vertical degree 0)."""
    return B.rows[0]


def box_product(K, L):
    """The external product (K box L)(n, m) = K_n x L_m: the pair (x, y)
    has id x * |L_m| + y."""
    return BiTruncSSet(
        [product(K, discrete(c, K.cap))[0] for c in L.counts],
        [product(discrete(c, L.cap), L)[0] for c in K.counts])
