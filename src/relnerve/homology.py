"""Exact integral homology of truncated simplicial sets.

Normalized chains (degenerate simplices killed) with arbitrary-precision
integer Smith normal form; this matches classifying-space homology and never
overflows.  Each table builds the chain complex once and reduces each
boundary it needs once.  A reduction first eliminates the +-1 pivots of the
sparse boundary columns (each gives an invariant factor 1), then runs a dense
Smith normal form on the core that remains, which carries the torsion.  The
trusted range of ``homology_groups`` is ``k <= cap - 1``: computing H_k needs
boundaries out of degree k+1.
"""

from __future__ import annotations

from .sset import TruncationError, classes


class HomologyError(TruncationError):
    """A degree outside the trusted range, or a cap too low for pi0."""


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
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix given
    as a list of rows."""
    units, core = _eliminate_unit_pivots(mat)
    return [1] * units + _dense_invariants(core)


def _eliminate_unit_pivots(mat):
    """Remove every +-1 pivot by a Schur-complement update.

    Works on sparse columns, one pass in column order; within a column the
    unit entry whose row has the fewest entries is the pivot, which keeps
    fill-in low.  Returns the number of pivots removed and the remaining
    core as dense rows; a unit left in the core is found by the dense pass.
    """
    cols = [{} for _ in range(len(mat[0]) if mat else 0)]
    rows = [set() for _ in mat]
    for r, row in enumerate(mat):
        for c, v in enumerate(row):
            if v:
                cols[c][r] = v
                rows[r].add(c)
    units = 0
    for c, col in enumerate(cols):
        unit_rows = [r for r, v in col.items() if v == 1 or v == -1]
        if not unit_rows:
            continue
        pr = min(unit_rows, key=lambda r: len(rows[r]))
        p = col[pr]
        for c2 in list(rows[pr]):
            if c2 == c:
                continue
            col2 = cols[c2]
            f = col2[pr] * p           # p is its own inverse
            for r, v in col.items():
                w = col2.get(r, 0) - f * v
                if w:
                    if r not in col2:
                        rows[r].add(c2)
                    col2[r] = w
                else:
                    del col2[r]
                    rows[r].discard(c2)
        for r in col:
            rows[r].discard(c)
        col.clear()
        units += 1
    live = [c for c in range(len(cols)) if cols[c]]
    core = [[cols[c].get(r, 0) for c in live]
            for r in range(len(rows)) if rows[r]]
    return units, core


def _dense_invariants(A):
    """Smith normal form of dense rows ``A`` (reduced in place)."""
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


def _homology(X, degrees):
    """(betti, torsion) of H_k for each k in ``degrees``, from one chain
    complex whose boundaries are each reduced at most once."""
    for k in degrees:
        if k < 0 or k > X.cap - 1:
            raise HomologyError(
                "H_%d is outside the trusted range (cap=%d needs k <= %d)"
                % (k, X.cap, X.cap - 1))
    ranks, boundaries = normalized_chains(X)
    invariants = {0: []}
    for k in degrees:
        for n in (k, k + 1):
            if n not in invariants:
                invariants[n] = smith_normal_form(boundaries[n])
    return [(ranks[k] - len(invariants[k]) - len(invariants[k + 1]),
             [d for d in invariants[k + 1] if d > 1]) for k in degrees]


def homology_groups(X, k):
    """(betti, torsion coefficients) of H_k, exact over the integers.

    Requires k <= cap - 1 so that the degree-(k+1) boundary is available.
    """
    return _homology(X, [k])[0]


def homology_table(X, max_degree):
    """``homology_groups(X, k)`` for k = 0 .. max_degree, reducing each
    boundary d_1 .. d_{max_degree+1} once."""
    return _homology(X, range(max_degree + 1))


def pi0(X):
    """Partition of the vertices into path components: sorted id lists,
    in the order of their least vertex."""
    if X.cap < 1:
        raise HomologyError("pi0 needs cap >= 1")
    cls, least = classes(X.counts[0], zip(X.faces[1][1], X.faces[1][0]))
    comps = [[] for _ in least]
    for v, c in enumerate(cls):
        comps[c].append(v)
    return comps


def format_homology(pairs):
    """Stable text rows: degree, betti, torsion list."""
    lines = []
    for k, (betti, torsion) in enumerate(pairs):
        tor = ",".join(str(t) for t in torsion) if torsion else "-"
        lines.append("H_%d betti=%d torsion=%s" % (k, betti, tor))
    return lines
