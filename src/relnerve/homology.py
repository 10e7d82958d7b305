"""Exact integral homology of truncated simplicial sets.

Normalized chains (degenerate simplices killed) with arbitrary-precision
integer Smith normal form; this matches classifying-space homology and never
overflows.  The trusted range of ``homology_groups`` is ``k <= cap - 1``:
computing H_k needs boundaries out of degree k+1.
"""

from __future__ import annotations

from .sset import _UnionFind


class HomologyError(Exception):
    pass


def normalized_chains(X):
    """Ranks and boundary matrices of the normalized chain complex.

    Returns ``(ranks, boundaries)`` where ``boundaries[n]`` is the matrix of
    the boundary C_n -> C_{n-1} as a list of rows (one per degree-(n-1)
    generator), columns indexed by degree-n generators.
    """
    gens = [X.nondegenerate(n) for n in range(X.cap + 1)]
    index = [{s: i for i, s in enumerate(g)} for g in gens]
    ranks = [len(g) for g in gens]
    boundaries = [None]
    for n in range(1, X.cap + 1):
        degflags = X.degenerate_flags(n - 1)
        mat = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for col, s in enumerate(gens[n]):
            for i in range(n + 1):
                f = X.faces[n][i][s]
                if degflags[f]:
                    continue
                mat[index[n - 1][f]][col] += (-1) ** i
        boundaries.append(mat)
    return ranks, boundaries


def smith_normal_form(mat):
    """Diagonal invariant factors d_1 | d_2 | ... of an integer matrix."""
    A = [row[:] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    top = 0
    while top < min(m, n):
        # find a pivot of least absolute value
        pr = pc = -1
        best = None
        for r in range(top, m):
            for c in range(top, n):
                v = abs(A[r][c])
                if v and (best is None or v < best):
                    best, pr, pc = v, r, c
        if best is None:
            break
        A[top], A[pr] = A[pr], A[top]
        for row in A:
            row[top], row[pc] = row[pc], row[top]
        while True:
            reduced = False
            for r in range(top + 1, m):
                if A[r][top]:
                    q = A[r][top] // A[top][top]
                    for c in range(top, n):
                        A[r][c] -= q * A[top][c]
                    if A[r][top]:
                        A[top], A[r] = A[r], A[top]
                    reduced = True
            for c in range(top + 1, n):
                if A[top][c]:
                    q = A[top][c] // A[top][top]
                    for r in range(top, m):
                        A[r][c] -= q * A[r][top]
                    if A[top][c]:
                        for r in range(top, m):
                            A[r][top], A[r][c] = A[r][c], A[r][top]
                    reduced = True
            if not reduced:
                break
        # enforce divisibility of later entries by the pivot
        p = A[top][top]
        fixed = True
        for r in range(top + 1, m):
            for c in range(top + 1, n):
                if A[r][c] % p:
                    for cc in range(top, n):
                        A[top][cc] += A[r][cc]
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            diag.append(abs(p))
            top += 1
    return diag


def rank_of(mat):
    return len([d for d in smith_normal_form(mat) if d])


def homology_groups(X, k):
    """(betti, torsion coefficients) of H_k, exact over the integers.

    Requires k <= cap - 1 so that the degree-(k+1) boundary is available.
    """
    if k < 0 or k > X.cap - 1:
        raise HomologyError(
            "H_%d is outside the trusted range (cap=%d needs k <= %d)"
            % (k, X.cap, X.cap - 1))
    ranks, boundaries = normalized_chains(X)
    rank_in = rank_of(boundaries[k]) if k >= 1 else 0
    d_out = boundaries[k + 1]
    invariants = smith_normal_form(d_out)
    rank_out = len([d for d in invariants if d])
    betti = ranks[k] - rank_in - rank_out
    torsion = sorted(d for d in invariants if d > 1)
    return betti, torsion


def homology_table(X, max_degree):
    return [homology_groups(X, k) for k in range(max_degree + 1)]


def pi0(X):
    """Partition of the vertices into path components (sorted id lists)."""
    if X.cap < 1:
        raise HomologyError("pi0 needs cap >= 1")
    uf = _UnionFind(X.counts[0])
    for e in X.simplices(1):
        uf.union(X.faces[1][1][e], X.faces[1][0][e])
    comps = {}
    for v in range(X.counts[0]):
        comps.setdefault(uf.find(v), []).append(v)
    return sorted(comps.values())


def format_homology(pairs):
    """Stable text rows: degree, betti, torsion list."""
    lines = []
    for k, (betti, torsion) in enumerate(pairs):
        tor = ",".join(str(t) for t in torsion) if torsion else "-"
        lines.append("H_%d betti=%d torsion=%s" % (k, betti, tor))
    return lines
