"""Sparse exact row-echelon kernel: the one elimination routine behind
every rank, membership and kernel answer.

A row is a pair of parallel lists: strictly increasing column indices and
nonzero integer coefficients.  Elimination is fraction-free: rows are
combined by integer cross-multiplication and divided by their content, so
every intermediate value is an exact integer and the computed rank is the
rank over the rationals.
"""

from math import gcd


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _combine(a, cols1, coeffs1, b, cols2, coeffs2):
    """a*row1 + b*row2 as a sorted merge, zero coefficients dropped."""
    out_cols = []
    out_coeffs = []
    i = j = 0
    n1 = len(cols1)
    n2 = len(cols2)
    while i < n1 and j < n2:
        c1 = cols1[i]
        c2 = cols2[j]
        if c1 < c2:
            out_cols.append(c1)
            out_coeffs.append(a * coeffs1[i])
            i += 1
        elif c1 > c2:
            out_cols.append(c2)
            out_coeffs.append(b * coeffs2[j])
            j += 1
        else:
            v = a * coeffs1[i] + b * coeffs2[j]
            if v:
                out_cols.append(c1)
                out_coeffs.append(v)
            i += 1
            j += 1
    while i < n1:
        out_cols.append(cols1[i])
        out_coeffs.append(a * coeffs1[i])
        i += 1
    while j < n2:
        out_cols.append(cols2[j])
        out_coeffs.append(b * coeffs2[j])
        j += 1
    return out_cols, out_coeffs


def _normalized(cols, coeffs):
    g = _content(coeffs)
    if coeffs and coeffs[0] < 0:
        g = -g
    if g not in (0, 1):
        coeffs = [c // g for c in coeffs]
    return cols, coeffs


class Echelon:
    """Incrementally maintained row-echelon span of integer rows.

    Each pivot row is stored under its leading column; an incoming row is
    reduced front-to-back against the pivots it meets.  Row operations are
    invertible over the rationals, so the span and the rank are exact.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rank = 0
        self._pivots = {}

    def reduce(self, cols, coeffs):
        """Residue of the row modulo the current span (content-reduced)."""
        pivots = self._pivots
        while cols:
            piv = pivots.get(cols[0])
            if piv is None:
                break
            pcols, pcoeffs = piv
            cols, coeffs = _combine(pcoeffs[0], cols, coeffs, -coeffs[0], pcols, pcoeffs)
            g = _content(coeffs)
            if g > 1:
                coeffs = [c // g for c in coeffs]
        return cols, coeffs

    def insert(self, cols, coeffs):
        """Add a row to the span; True iff it increased the rank."""
        cols, coeffs = self.reduce(list(cols), list(coeffs))
        if not cols:
            return False
        cols, coeffs = _normalized(cols, coeffs)
        self._pivots[cols[0]] = (cols, coeffs)
        self.rank += 1
        return True

    def contains(self, cols, coeffs):
        """True iff the row lies in the current rational span."""
        cols, _ = self.reduce(list(cols), list(coeffs))
        return not cols
