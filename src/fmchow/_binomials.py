"""Pure-difference binomials as rewrite rules, and the normal form they
give a monomial: the rules behind the third kind of dead monomial in
`fmchow.ranks`, whose docstring says why every rank stays exact.

A binomial c*(x*w - y*w), for variables x > y and a monomial w, is read
as the rule x*w -> y*w.  Rules are kept while they stay confluent: every
S-pair of two rules whose leading monomials share a variable reduces to
zero.  Then the rules, together with a monomial ideal closed under them as
`BinomialRules.close` closes it, are a Groebner basis in the lex order of
the packed monomials (Eisenbud and Sturmfels, "Binomial ideals", 1996;
Cox, Little and O'Shea, "Ideals, Varieties, and Algorithms", ch. 2-3):
modulo the rules, a monomial is congruent to exactly one monomial that no
rule rewrites, its normal form NF.

Monomials are the packed integers of `fmchow.polyalg`, whose fields never
carry.  So with every guard bit set in u, u - d keeps the guard bits of
exactly the fields where u's exponent is at least d's: one subtraction
tests a divisor (`VarTable.divides`), and gives the field-wise maximum
that an lcm takes.
"""


def unit_move(m: int, n: int, width: int):
    """(x, y, w) with m = x*w and n = y*w for variables x > y, when the
    packed monomials m > n are such a pair, else None: then m - n = x - y,
    whose lowest set bit is y, and both sit at the start of a field, x's
    held by m."""
    y = (m - n) & (n - m)
    x = m - n + y
    if x & (x - 1) or (x.bit_length() - 1) % width or (y.bit_length() - 1) % width:
        return None
    if not (m >> (x.bit_length() - 1)) & ((1 << width) - 1):
        return None
    return x, y, m - x


class BinomialRules:
    """Confluent rewrite rules x*w -> y*w over one variable table, at or
    below a top degree, and the normal form NF they give a monomial.

    A rule is kept in the group of its x as (e, rest, y): e is x's exponent
    in w and rest the rest of w.  It applies to a monomial u whose
    x-exponent is over e and which rest divides, and then moves that
    excess of x onto y at once."""

    def __init__(self, table, top: int):
        w = table.width
        self._table = table
        self._field, self._top, self._top_bit = (1 << w) - 1, top, w - 1
        self._guard = table._guard
        self._units = self._guard >> (w - 1)  # one unit at the start of each field
        self._groups = {}  # x -> its rules
        self._order = []  # (x, shift, rules) of each group, x descending
        self._movers = 0  # the fields of the groups' x
        # the fields of the rules' rests, and the x of a rule of no rest: a
        # rule applies to a monomial only if it holds one of them (and at
        # times they hold a rejected rule's too)
        self._rests = 0
        self._held = []  # the fields each rule's leading monomial holds
        #: (leading monomial x*w, x, y) of each rule, in the order taken
        self.rules = []
        #: degree -> the rules' leading monomials
        self.leads = {}

    def _at_least(self, a: int, b: int) -> int:
        """The full fields where a's exponent is at least b's."""
        return ((((a | self._guard) - b) & self._guard) >> self._top_bit) * self._field

    def _lcm(self, a: int, b: int) -> int:
        wider = self._at_least(a, b)
        return (a & wider) | (b & ~wider)

    def reduce(self, u: int) -> int:
        """u rewritten by the rules until none applies: a pass over the
        groups from the largest x down.  A move raises only y, which is
        smaller than x, so it can make a rule of a group already passed
        apply only when some rule's rest holds y; then the pass repeats.
        A move lowers u in the lex order, so the passes end."""
        if not (u & self._movers and u & self._rests):
            return u
        field, guard, rests = self._field, self._guard, self._rests
        moved = True
        while moved:
            moved = False
            for x, shift, rules in self._order:
                e = (u >> shift) & field
                if not e:
                    continue
                for ew, rest, y in rules:
                    if e > ew and ((u | guard) - rest) & guard == guard:
                        u += (e - ew) * (y - x)
                        e = ew
                        if y & rests:
                            moved = True
        return u

    def accept(self, x: int, y: int, w: int, killers: list) -> bool:
        """Take x*w -> y*w as a rule iff every S-pair with a kept rule whose
        leading monomial shares a variable with x*w, at or below the top
        degree, reduces to zero: both sides rewrite to one monomial, or a
        cap or one of the packed `killers` divides each."""
        field = self._field
        lead = x + w
        shift = x.bit_length() - 1
        ew = (w >> shift) & field
        rest = w - (ew << shift)
        group = self._groups.get(x)
        if group is None:
            group = self._groups[x] = []
            self._order = sorted(self._order + [(x, shift, group)], reverse=True)
        group.append((ew, rest, y))
        self._movers |= field << shift
        self._rests |= self._at_least(rest, self._units) if rest else field << shift
        held = self._at_least(lead, self._units)
        for (other, ox, oy), other_held in zip(self.rules, self._held):
            if not held & other_held:
                continue
            lcm = self._lcm(lead, other)
            if lcm % field > self._top:
                continue
            a = self.reduce(lcm - x + y)
            b = self.reduce(lcm - ox + oy)
            if a != b and not (self._killed(a, killers) and self._killed(b, killers)):
                group.pop()
                if not group:
                    del self._groups[x]
                    self._order = [entry for entry in self._order if entry[2]]
                    self._movers &= ~(field << shift)
                return False
        self.rules.append((lead, x, y))
        self._held.append(held)
        self.leads.setdefault(lead % field, set()).add(lead)
        return True

    def rewrite(self, packed: dict) -> dict:
        """Packed terms, monomial -> coefficient, with each monomial
        replaced by its NF and equal ones merged; a term whose NF a cap
        divides is dropped."""
        out = {}
        reduce, over_cap = self.reduce, self._table.over_cap
        bias, guard = self._table._bias, self._guard
        for m, c in packed.items():
            u = reduce(m)
            if u != m and (u + bias) & guard and over_cap(u):
                continue
            out[u] = out.get(u, 0) + c
        return {u: c for u, c in out.items() if c}

    def _killed(self, u: int, killers: list) -> bool:
        table = self._table
        return table.over_cap(u) or any(table.divides(g, u) for g in killers)

    def close(self, generators, killers: dict):
        """Kill what the S-pairs of the rules with the monomials of the
        ideal in `generators` ask for: for each rule x*w -> y*w and each
        generator g whose x-exponent is over w's, NF(lcm(x*w, g)) goes
        into `killers` (degree -> set) at its degree, unless that degree is
        over the top or a cap divides the NF, which kills it already."""
        field, top = self._field, self._top
        for g in generators:
            if not g & self._movers:
                continue
            for _, shift, rules in self._order:
                e = (g >> shift) & field
                for ew, rest, _ in rules:
                    if e > ew:
                        lcm = self._lcm(g, rest)
                        degree = lcm % field
                        if degree <= top:
                            u = self.reduce(lcm)
                            if not self._table.over_cap(u):
                                killers.setdefault(degree, set()).add(u)
