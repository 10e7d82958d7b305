"""Exact integral homology of truncated simplicial sets.

Normalized chains (degenerate simplices killed) with arbitrary-precision
integer Smith normal form; this matches classifying-space homology and never
overflows.  A boundary d_n is held as sparse columns: one ``{row:
coefficient}`` dict per nondegenerate n-simplex, with no zero entries.  A
reduction first eliminates the +-1 pivots of these columns (each gives an
invariant factor 1), then runs a dense Smith normal form on the small core
that remains, which carries the torsion.

A table reduces each boundary it needs once, from the top degree down, and
clears as it goes (Chen and Kerber, "Persistent homology computation with a
twist", 2011): the n-simplices that were unit-pivot rows of d_{n+1} are left
out of d_n.  This is exact over the integers, see ``_homology``.  The
trusted range of ``homology_groups`` is ``k <= cap - 1``: computing H_k
needs boundaries out of degree k+1.
"""

from __future__ import annotations

from .sset import TruncationError, classes


class HomologyError(TruncationError):
    """A degree outside the trusted range, or a cap too low for pi0."""


def normalized_chains(X):
    """Ranks and sparse boundary columns of the normalized chain complex.

    Returns ``(ranks, boundaries)``.  ``boundaries[n]`` (for n >= 1; entry 0
    is None) is the boundary C_n -> C_{n-1} as a list of columns, one per
    nondegenerate n-simplex in the order of ``X.nondegenerate(n)``.  Each
    column is a dict from row (the position of a nondegenerate
    (n-1)-simplex in ``X.nondegenerate(n - 1)``) to its nonzero coefficient;
    a simplex whose faces cancel has an empty column.
    """
    ranks = [len(X.nondegenerate(n)) for n in range(X.cap + 1)]
    return ranks, [None] + [_boundary_columns(X, n)
                            for n in range(1, X.cap + 1)]


def _boundary_columns(X, n, cleared=()):
    """Sparse columns of d_n, leaving out the n-simplex positions in
    ``cleared``."""
    row_of = [None] * X.counts[n - 1]
    for r, f in enumerate(X.nondegenerate(n - 1)):
        row_of[f] = r
    faces = X.faces[n]
    cols = []
    for c, s in enumerate(X.nondegenerate(n)):
        if c in cleared:
            continue
        col = {}
        sign = 1
        for face in faces:
            r = row_of[face[s]]
            if r is not None:
                w = col.get(r, 0) + sign
                if w:
                    col[r] = w
                else:
                    del col[r]
            sign = -sign
        cols.append(col)
    return cols


def smith_normal_form(cols):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix given
    as sparse columns (``{row: coefficient}`` dicts, reduced in place), and
    the rows of its unit pivots in the order they were eliminated."""
    pivots, core = _eliminate_unit_pivots(cols)
    return [1] * len(pivots) + _dense_invariants(core), pivots


def _eliminate_unit_pivots(cols):
    """Remove every +-1 pivot by a Schur-complement update.

    One pass in column order; within a column the unit entry whose row has
    the fewest entries is the pivot, which keeps fill-in low.  Column
    operations zero each pivot's row in every other column, then its column
    is dropped.  Returns the pivot rows and the remaining core as
    dense rows; a unit left in the core is found by the dense pass.
    """
    rows = {}
    for c, col in enumerate(cols):
        for r in col:
            if r in rows:
                rows[r].add(c)
            else:
                rows[r] = {c}
    pivots = []
    for c, col in enumerate(cols):
        pr = fewest = None
        for r, v in col.items():
            if (v == 1 or v == -1) and (pr is None or len(rows[r]) < fewest):
                pr, fewest = r, len(rows[r])
        if pr is None:
            continue
        p = col[pr]
        others = rows[pr]
        others.discard(c)
        for c2 in list(others):
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
        pivots.append(pr)
    live = [col for col in cols if col]
    core = [[col.get(r, 0) for col in live]
            for r in sorted(r for r, cs in rows.items() if cs)]
    return pivots, core


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
    """(betti, torsion) of H_k for each k in ``degrees``, reducing each
    boundary it needs once, from the top degree down."""
    for k in degrees:
        if k < 0 or k > X.cap - 1:
            raise HomologyError(
                "H_%d is outside the trusted range (cap=%d needs k <= %d)"
                % (k, X.cap, X.cap - 1))
    # Clearing: d_n leaves out the n-simplices that were unit-pivot rows of
    # d_{n+1}.  When a column of d_{n+1} is eliminated it is, after the
    # column operations before it, a boundary b = d_{n+1}(x) with +-1 at
    # its pivot row and 0 at every earlier pivot row (those rows were
    # zeroed in all other columns).  So swapping the pivot-row
    # generators of C_n for these boundaries is a triangular, unimodular
    # change of basis, and d_n(b) = d_n d_{n+1}(x) = 0: on the new basis d_n
    # is its old columns with the cleared ones replaced by zeros, which have
    # the same invariant factors as the old columns without them.
    invariants = {0: []}
    pivots = {}
    for n in sorted({n for k in degrees for n in (k, k + 1)} - {0},
                    reverse=True):
        invariants[n], pivots[n] = smith_normal_form(
            _boundary_columns(X, n, set(pivots.get(n + 1, ()))))
    return [(len(X.nondegenerate(k)) - len(invariants[k])
             - len(invariants[k + 1]),
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
