"""Reference routines that only the tests use, kept apart from the package
so that they stay independent of the code they check."""


def det_bareiss(rows, domain):
    """Determinant over a field by fraction-free Bareiss elimination, with
    row swaps at zero pivots: the oracle for pfaffian^2 = det and
    m . adj(m) = det(m) . I."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in rows]
    prev = domain.one()
    sign = 1
    for k in range(n - 1):
        if domain.is_zero(rows[k][k]):
            piv = next((i for i in range(k + 1, n) if not domain.is_zero(rows[i][k])), None)
            if piv is None:
                return domain.zero()
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pv = rows[k][k]
        for i in range(k + 1, n):
            fi = rows[i][k]
            rows[i] = [(pv * rows[i][j] - fi * rows[k][j]) / prev for j in range(n)]
        prev = pv
    d = rows[n - 1][n - 1]
    return d if sign == 1 else -d
