"""Sparse exact row-echelon kernel: the one elimination routine behind
every rank, membership and kernel answer.

A row is a pair of parallel lists: strictly increasing column indices and
nonzero integer coefficients.  Elimination is fraction-free: every
intermediate value is an exact integer, so the computed rank is the rank
over the rationals.

A row is reduced in a sparse accumulator: a dict from column to
coefficient and a heap of its columns.  A reduction step touches only the
entries of the pivot it subtracts, not the whole row.  Pivot rows are
stored primitive with a positive lead a.  For a row lead b, a step forms
a'*row - b'*pivot with a' = a/gcd(a, b) and b' = b/gcd(a, b).  When a' is 1
-- almost every step on real presentations, whose pivot leads are mostly
1 -- that is a subtraction over the pivot's entries alone; only otherwise
is the whole row scaled by a' and then divided by its content.  Every step
multiplies the row by a positive rational, so the residue is a positive
multiple of the one found by merging the full row with each pivot and
content-reducing after every step.  An inserted residue is divided by its
content and signed, so the stored pivots are exactly that merge form's.
"""

from heapq import heappop, heappush
from math import gcd


def _normalized(cols, coeffs):
    """Fresh lists of a nonzero row divided by its content, lead positive."""
    g = gcd(*coeffs)
    if coeffs[0] < 0:
        g = -g
    return list(cols), [c // g for c in coeffs]


class Echelon:
    """Incrementally maintained row-echelon span of integer rows.

    Each pivot row is stored under its leading column, primitive and with
    a positive lead; an incoming row is reduced front-to-back against the
    pivots it meets, in a sparse accumulator (see the module docstring).
    Row operations are invertible over the rationals, so the span and the
    rank are exact.  No method changes or keeps the caller's lists.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rank = 0
        self._pivots = {}

    def reduce(self, cols, coeffs):
        """Residue of the row modulo the current span, up to a positive
        rational factor.  A row whose lead has no pivot is returned as it
        is, and no accumulator is built; otherwise the residue is a pair of
        new lists.

        The accumulator maps each column at or after the current lead to
        its coefficient, zero once cancelled, and the heap holds exactly
        those columns.  The incoming columns ascend, so they are a heap
        already.  A step pops the lead, whose pivot cancels it, and
        subtracts b'*pivot over the pivot's other entries; a column new to
        the row is pushed.  A popped zero is dropped.  Content is reduced
        only after a step that scaled the row.
        """
        pivots = self._pivots
        if not cols or cols[0] not in pivots:
            return cols, coeffs
        row = dict(zip(cols, coeffs))
        heap = list(cols)
        while heap:
            lead = heap[0]
            b = row[lead]
            if not b:
                heappop(heap)
                del row[lead]
                continue
            piv = pivots.get(lead)
            if piv is None:
                break
            heappop(heap)
            del row[lead]
            pcols, pcoeffs = piv
            a = pcoeffs[0]
            if a != 1:
                g = gcd(a, b)
                a //= g
                b //= g
                if a != 1:
                    for k in row:
                        row[k] *= a
            for i in range(1, len(pcols)):
                k = pcols[i]
                w = row.get(k)
                if w is None:
                    row[k] = -b * pcoeffs[i]
                    heappush(heap, k)
                else:
                    row[k] = w - b * pcoeffs[i]
            if a != 1:
                g = gcd(*row.values())
                if g > 1:
                    for k in row:
                        row[k] //= g
        heap.sort()
        cols = [k for k in heap if row[k]]
        return cols, [row[k] for k in cols]

    def insert(self, cols, coeffs):
        """Add a row to the span; True iff it increased the rank."""
        cols, coeffs = self.reduce(cols, coeffs)
        if not cols:
            return False
        cols, coeffs = _normalized(cols, coeffs)
        self._pivots[cols[0]] = (cols, coeffs)
        self.rank += 1
        return True

    def contains(self, cols, coeffs):
        """True iff the row lies in the current rational span."""
        cols, _ = self.reduce(cols, coeffs)
        return not cols

    @property
    def pivot_columns(self):
        """The columns that lead a pivot row, as a read-only view that
        follows later inserts."""
        return self._pivots.keys()
