"""Exact multivariate polynomial arithmetic and graded presentations.

Coefficients are arbitrary-precision integers; any other coefficient
(a Fraction, a float) raises StructureError.  Variables come in two
flavors: point variables (hyperplane classes h_i, nilpotent with a fixed
power cap, so `h_i^cap = 0` is enforced inside normalization rather than
carried as an explicit relation) and divisor variables (D_S, E, ...) with
no cap.  Every value is immutable after construction; normalization --
dropping zero coefficients and monomials that violate a cap -- is the only
place terms disappear.

Monomials are packed integers, one encoding from the presentation build
to elimination.  A field of w = 8 bits per variable holds its exponent,
variable i at bit i*w, so ascending integer order is the canonical basis
order (`_mono_key`, later variables most significant), and the product of
two monomials is one integer addition.  The top bit of each field is a
guard bit.  Every monomial has total degree at most MAX_DEGREE =
2**(w-1) - 1 = 127, every variable having degree 1, so no exponent
reaches its field's guard bit.  The exponent sum of a product of two
monomials is at most 254 in every field, so it never carries into the next
field, and the degree of a monomial or of such a product, at most 254, is
its packed value modulo 2**w - 1 = 255: 2**w is 1 modulo 255, so the
packed value is congruent to the sum of its fields.  The table adds one
constant to a product monomial that sets the guard bit of exactly the
capped fields at or over their cap, so the cap test is one add-and-mask,
and a product monomial there dies.  One that survives its caps with a
degree over MAX_DEGREE raises StructureError instead of wrapping, as does
an exponent tuple of such a degree, a negative or non-integer exponent,
and a table with a cap over MAX_DEGREE + 1.  `Poly.terms`, the exponent
tuple view, is unpacked on demand.

Canonical text form: terms are joined by " + " / " - " in descending
order of the monomial key that ranks later variables (divisor variables)
highest, a term is `coefficient*factors` with unit coefficients omitted,
and a factor prints as `h3^2` or `D{1,3}`.  Example: `E^2 - 2*h*E + h^2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Mapping, Optional, Sequence

from fmchow.errors import DegreeError, StructureError

#: bits per variable in a packed monomial, the top one a guard bit
FIELD_BITS = 8
#: the largest total degree of a monomial, so that no exponent reaches its guard bit
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
# a field's mask, and the modulus that gives a monomial's degree
_FIELD = (1 << FIELD_BITS) - 1


def divisor_name(s) -> str:
    """Canonical name of the divisor variable attached to a subset."""
    return "D{%s}" % ",".join(str(i) for i in sorted(s))


@dataclass(frozen=True)
class Var:
    """One ring variable, of degree 1.  `cap` is the vanishing power
    (v**cap == 0), or None for no cap."""

    name: str
    degree: int = 1
    cap: Optional[int] = None

    def __post_init__(self):
        if self.degree != 1:
            raise ValueError("every variable has degree 1")
        if self.cap is not None and self.cap < 1:
            raise ValueError("variable cap must be positive")


@dataclass(frozen=True, eq=False)
class VarTable:
    """An ordered tuple of distinct variables, and the packed encoding of
    monomials over them (see the module docstring).  Tables compare and
    hash by a plain tuple of (name, degree, cap), made once."""

    vars: tuple

    def __post_init__(self):
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise StructureError("duplicate variable names")
        w = FIELD_BITS
        half = 1 << (w - 1)
        bias = guard = capped = 0
        for i, v in enumerate(self.vars):
            bit = 1 << (i * w + w - 1)
            guard |= bit
            if v.cap is None:
                continue
            if v.cap > MAX_DEGREE + 1:
                raise StructureError(
                    f"cap {v.cap} of {v.name!r} is over the packed monomial's degree bound {MAX_DEGREE} plus one"
                )
            bias += (half - v.cap) << (i * w)
            capped |= bit
        key = tuple((v.name, v.degree, v.cap) for v in self.vars)
        for name, value in (
            ("_index", {v.name: i for i, v in enumerate(self.vars)}),
            ("_names", tuple(names)),
            ("_key", key),
            ("_hash", hash(key)),
            ("_caps", tuple(v.cap for v in self.vars)),
            ("_shifts", tuple(range(0, len(self.vars) * w, w))),
            ("_bias", bias),
            ("_capped", capped),
            ("_guard", guard),
        ):
            object.__setattr__(self, name, value)

    @property
    def width(self) -> int:
        """Bits per variable in a packed monomial."""
        return FIELD_BITS

    @classmethod
    def for_points(cls, n: int, dim: int, prefix: str = "h") -> "VarTable":
        """h_1..h_n, each killed in power dim+1 (the Chow ring of (P^dim)^n)."""
        return cls(tuple(Var(f"{prefix}{i}", 1, dim + 1) for i in range(1, n + 1)))

    def __eq__(self, other):
        return self is other or (isinstance(other, VarTable) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __len__(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructureError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self) -> tuple:
        return self._names

    def caps(self) -> tuple:
        return self._caps

    def extended(self, var: Var) -> "VarTable":
        if var.name in self:
            raise StructureError(f"variable {var.name!r} already present")
        return VarTable(self.vars + (var,))

    def pack(self, exps) -> Optional[int]:
        """The packed monomial of an exponent tuple, or None when a cap
        kills it.  Raises StructureError on a tuple of the wrong length, a
        negative or non-integer exponent, or a tuple of degree over
        MAX_DEGREE that no cap kills."""
        if len(exps) != len(self.vars):
            raise StructureError("exponent tuple has wrong length")
        packed = degree = 0
        dead = False
        for e, cap, shift in zip(exps, self._caps, self._shifts):
            try:
                e = index(e)
            except TypeError:
                raise StructureError(f"exponent {e!r} is not an integer") from None
            if e < 0:
                raise StructureError(f"exponent {e} is negative")
            if cap is not None and e >= cap:
                dead = True
            degree += e
            packed |= e << shift
        if dead:
            return None
        if degree > MAX_DEGREE:
            raise StructureError(_too_large(degree))
        return packed

    def unpack(self, packed: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple((packed >> shift) & _FIELD for shift in self._shifts)

    def divides(self, d: int, packed: int) -> bool:
        """Whether the packed monomial d divides the packed monomial
        `packed`: the fields never carry, so with every guard bit set,
        packed - d keeps them all iff no exponent of d is larger."""
        return ((packed | self._guard) - d) & self._guard == self._guard


def _too_large(degree: int) -> str:
    return f"a monomial of degree {degree} is over the packed monomial's degree bound {MAX_DEGREE}"


def _coefficient(c) -> int:
    """An integer coefficient, or StructureError: a rational or float one
    would be truncated or break exact elimination."""
    try:
        return index(c)
    except TypeError:
        raise StructureError(f"coefficient {c!r} is not an integer") from None


def _mul_into(out: dict, p: dict, q: dict, table: VarTable) -> dict:
    """Add the product of the packed terms p and q into `out` and return
    it: the one multiply-accumulate loop of the module.  A product monomial
    at or over a cap dies; one that survives its caps with a degree over
    MAX_DEGREE raises StructureError."""
    bias, capped = table._bias, table._capped
    q = q.items()
    for m1, c1 in p.items():
        for m2, c2 in q:
            m = m1 + m2
            if (m + bias) & capped:
                continue  # monomial dies on a nilpotency cap
            if m % _FIELD > MAX_DEGREE:
                raise StructureError(_too_large(m % _FIELD))
            acc = out.get(m, 0) + c1 * c2
            if acc:
                out[m] = acc
            else:
                del out[m]
    return out


def _mono_key(exps):
    # Later variables (divisor variables) rank highest; descending order of
    # this key is the canonical printing order, ascending the basis order.
    return tuple(reversed(exps))


class Poly:
    """An exact-integer polynomial over a fixed VarTable.

    Internally `packed`, a map from packed monomials to nonzero
    coefficients (read it, never change it).  The constructor takes
    exponent tuples and normalizes (caps applied, zeros dropped);
    arithmetic builds its results normalized.  Instances are immutable;
    arithmetic returns new objects.
    """

    __slots__ = ("table", "packed")

    def __init__(self, table: VarTable, terms: Mapping):
        packed = {}
        for exps, coeff in terms.items():
            coeff = _coefficient(coeff)
            if coeff == 0:
                continue
            m = table.pack(exps)
            if m is None:
                continue  # monomial dies on a nilpotency cap
            acc = packed.get(m, 0) + coeff
            if acc:
                packed[m] = acc
            else:
                del packed[m]
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "packed", packed)

    @classmethod
    def _of(cls, table: VarTable, packed: dict) -> "Poly":
        # packed terms that are already normalized
        self = object.__new__(cls)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "packed", packed)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict:
        """Exponent tuple -> nonzero coefficient, unpacked on each call."""
        unpack = self.table.unpack
        return {unpack(m): c for m, c in self.packed.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Poly":
        return cls._of(table, {})

    @classmethod
    def constant(cls, table: VarTable, c: int) -> "Poly":
        c = _coefficient(c)
        return cls._of(table, {0: c} if c else {})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Poly":
        return cls.variable_sum(table, (name,))

    @classmethod
    def variable_sum(cls, table: VarTable, names) -> "Poly":
        """The sum of the named variables, built as one dict of unit
        monomials; a variable its cap kills adds nothing."""
        terms = {}
        for name in names:
            i = table.index(name)
            if table.vars[i].cap != 1:
                m = 1 << (i * FIELD_BITS)
                terms[m] = terms.get(m, 0) + 1
        return cls._of(table, terms)

    @classmethod
    def monomial(cls, table: VarTable, exps, coeff: int = 1) -> "Poly":
        return cls(table, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def homogeneous_degree(self) -> Optional[int]:
        """Total degree if homogeneous (None for the zero polynomial)."""
        degrees = {m % _FIELD for m in self.packed}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise DegreeError(f"polynomial is inhomogeneous: {self}")
        return degrees.pop()

    def _check_table(self, other: "Poly"):
        if self.table is not other.table and self.table != other.table:
            raise StructureError("polynomials live over different variable tables")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.table, other)
        self._check_table(other)
        terms = dict(self.packed)
        for m, coeff in other.packed.items():
            acc = terms.get(m, 0) + coeff
            if acc:
                terms[m] = acc
            else:
                del terms[m]
        return Poly._of(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.table, {m: -c for m, c in self.packed.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        table = self.table
        if not isinstance(other, Poly):
            other = _coefficient(other)
            if not other:
                return Poly._of(table, {})
            return Poly._of(table, {m: other * c for m, c in self.packed.items()})
        self._check_table(other)
        return Poly._of(table, _mul_into({}, self.packed, other.packed, table))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.table, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.table == other.table
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.table, frozenset(self.packed.items())))

    # -- canonical form ----------------------------------------------------

    def sign_normalized(self) -> "Poly":
        """Same polynomial up to sign, with positive leading coefficient."""
        if self.packed and self.packed[max(self.packed)] < 0:
            return -self
        return self

    def _term_str(self, m: int, coeff, leading: bool) -> str:
        """One term of packed monomial m, its factors in variable order:
        only the set fields of m are visited, from the lowest up."""
        names, w = self.table._names, FIELD_BITS
        factors = []
        rest = m
        while rest:
            i = ((rest & -rest).bit_length() - 1) // w
            e = (rest >> (i * w)) & _FIELD
            rest &= ~(_FIELD << (i * w))
            factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if leading:
            return body if coeff > 0 else "-" + body
        return (" + " if coeff > 0 else " - ") + body

    def __str__(self):
        if not self.packed:
            return "0"
        terms = sorted(self.packed.items(), reverse=True)  # canonical (printing) order
        return "".join(
            self._term_str(m, c, leading=(i == 0)) for i, (m, c) in enumerate(terms)
        )

    def __repr__(self):
        return f"Poly({self})"


def transport(poly: Poly, table: VarTable, rename: Optional[Mapping] = None) -> Poly:
    """Re-express a polynomial over another table, matching variables by
    name (optionally renamed first).  Every used variable must exist in the
    target; the target's caps are applied."""
    src = poly.table
    bias, capped = table._bias, table._capped
    support = 0
    for m in poly.packed:
        support |= m
    if not rename and table._names[: len(src)] == src._names and not (support + bias) & capped:
        # same variables in the same fields, and no field of the support (at
        # least that field of every term) reaches the target's cap
        return Poly._of(table, poly.packed)
    rename = rename or {}
    # (source shift, target shift) of the variables that actually occur
    moves = [
        (a, table.index(rename.get(name, name)) * FIELD_BITS)
        for name, a in zip(src._names, src._shifts)
        if (support >> a) & _FIELD
    ]
    out = {}
    for m, coeff in poly.packed.items():
        # renamed variables may land on one field, which then holds their
        # exponent sum: at most the monomial's degree, below the guard bit
        new = 0
        for a, b in moves:
            new += ((m >> a) & _FIELD) << b
        if (new + bias) & capped:
            continue  # monomial dies on a cap of the target
        acc = out.get(new, 0) + coeff
        if acc:
            out[new] = acc
        else:
            del out[new]
    return Poly._of(table, out)


def substitute(poly: Poly, name: str, value: Poly) -> Poly:
    """Replace one variable by a polynomial (over the same table)."""
    poly._check_table(value)
    idx = poly.table.index(name)
    out = Poly.zero(poly.table)
    powers = {0: Poly.constant(poly.table, 1)}
    for exps, coeff in sorted(poly.terms.items()):
        e = exps[idx]
        if e not in powers:
            powers[e] = value**e
        rest = list(exps)
        rest[idx] = 0
        out = out + Poly.monomial(poly.table, tuple(rest), coeff) * powers[e]
    return out


class ChernPoly:
    """A polynomial in a formal variable t with Poly coefficients.

    Represents a Chern polynomial of a codimension-`degree` center: the
    coefficient of t^l is homogeneous of total degree (degree - l), the
    constant term is the class of the center itself.
    """

    __slots__ = ("table", "degree", "coeffs")

    def __init__(self, table: VarTable, degree: int, coeffs: Sequence[Poly]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != degree + 1:
            raise DegreeError("need exactly degree+1 coefficients")
        for ell, c in enumerate(coeffs):
            if c.table is not table and c.table != table:
                raise StructureError("coefficient over a different variable table")
            if not c.is_zero() and c.homogeneous_degree() != degree - ell:
                raise DegreeError(
                    f"coefficient of t^{ell} must be homogeneous of degree "
                    f"{degree - ell}, got {c}"
                )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("ChernPoly is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ChernPoly)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __str__(self):
        parts = []
        for ell in range(self.degree, -1, -1):
            c = self.coeffs[ell]
            if c.is_zero():
                continue
            tpow = "" if ell == 0 else ("t" if ell == 1 else f"t^{ell}")
            parts.append(f"({c}){tpow}" if tpow else f"({c})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ChernPoly({self})"


def chern_mul(p: ChernPoly, q: ChernPoly) -> ChernPoly:
    """Product of Chern polynomials (codimensions add)."""
    p.coeffs[0]._check_table(q.coeffs[0])
    table = p.table
    coeffs = [{} for _ in range(p.degree + q.degree + 1)]
    for a, ca in enumerate(p.coeffs):
        for b, cb in enumerate(q.coeffs):
            _mul_into(coeffs[a + b], ca.packed, cb.packed, table)
    return ChernPoly(table, p.degree + q.degree, [Poly._of(table, c) for c in coeffs])


def chern_eval(p: ChernPoly, s: Poly) -> Poly:
    """Evaluate at a degree-1 class: sum of coeffs[l] * s^l."""
    if not s.is_zero() and s.homogeneous_degree() != 1:
        raise DegreeError("evaluation argument must be homogeneous of degree 1")
    return chern_eval_powers(p, [Poly.constant(p.table, 1), s])


def chern_eval_powers(p: ChernPoly, powers: list) -> Poly:
    """`chern_eval` at the class powers[1], given as the list of its powers
    from the 0th.  The list is extended in place as far as p's degree
    needs and never further, so evaluations at one class share it."""
    p.coeffs[0]._check_table(powers[1])
    while len(powers) <= p.degree:
        powers.append(powers[-1] * powers[1])
    out = {}
    for c, power in zip(p.coeffs, powers):
        _mul_into(out, c.packed, power.packed, p.table)
    return Poly._of(p.table, out)


def chern_shift(p: ChernPoly, u: Poly, sign: int = 1) -> ChernPoly:
    """The Chern polynomial q with q(t) = p(sign*t + u), expanded exactly
    by the binomial theorem.  sign must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p.coeffs[0]._check_table(u)
    if not u.is_zero() and u.homogeneous_degree() != 1:
        raise DegreeError("shift must be homogeneous of degree 1")
    table = p.table
    coeffs = [{} for _ in range(p.degree + 1)]
    upow = [Poly.constant(table, 1)]
    for _ in range(p.degree):
        upow.append(upow[-1] * u)
    from math import comb

    for ell, c in enumerate(p.coeffs):
        for j in range(ell + 1):
            contrib = c * (comb(ell, j) * (sign**j))
            _mul_into(coeffs[j], contrib.packed, upow[ell - j].packed, table)
    return ChernPoly(table, p.degree, [Poly._of(table, x) for x in coeffs])


class Presentation:
    """A graded ring presentation: variables, homogeneous relations, and a
    top degree above which the ring is regarded as zero.

    Point-variable caps act as implicit relations (they are enforced in
    normalization), so e.g. Z[h,E]/<h^4, h^2*E, E^2-2hE+h^2> is encoded
    with h capped at power 4 and the two explicit relations.  Relations
    are stored sign-normalized, deduplicated and canonically sorted: each
    relation's terms are sorted once, and the leading term gives the degree
    every term must have and the sign.
    """

    __slots__ = ("table", "relations", "top_degree")

    def __init__(self, table: VarTable, relations: Iterable[Poly], top_degree: int):
        if top_degree < 0:
            raise ValueError("top degree must be nonnegative")
        seen = {}
        for rel in relations:
            if rel.table is not table and rel.table != table:
                raise StructureError("relation over a different variable table")
            if rel.is_zero():
                continue
            terms = sorted(rel.packed.items(), reverse=True)
            degree = terms[0][0] % _FIELD
            for m, _ in terms:
                if m % _FIELD != degree:
                    raise DegreeError(f"polynomial is inhomogeneous: {rel}")
            if terms[0][1] < 0:
                rel = Poly._of(table, {m: -c for m, c in terms})
                terms = rel.packed.items()  # in the sorted order
            seen[degree, tuple(terms)] = rel
        ordered = [seen[key] for key in sorted(seen)]
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "relations", tuple(ordered))
        object.__setattr__(self, "top_degree", top_degree)

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.table == other.table
            and self.relations == other.relations
            and self.top_degree == other.top_degree
        )

    def __hash__(self):
        return hash((self.table, self.relations, self.top_degree))

    def canonical_var_order(self) -> "Presentation":
        """Same presentation with the variables reordered canonically:
        capped (point) variables first in name order, then divisor
        variables sorted by (subset size, elements), then anything else."""

        def var_key(v: Var):
            if v.name.startswith("D{") and v.name.endswith("}"):
                elems = tuple(int(x) for x in v.name[2:-1].split(","))
                return (1, len(elems), elems, v.name)
            if v.cap is not None:
                num = "".join(ch for ch in v.name if ch.isdigit())
                return (0, 0, (int(num) if num else 0,), v.name)
            return (2, 0, (), v.name)

        new_table = VarTable(tuple(sorted(self.table.vars, key=var_key)))
        rels = [transport(r, new_table) for r in self.relations]
        return Presentation(new_table, rels, self.top_degree)

    def dump(self) -> str:
        """Canonical plain-text form (identical bytes across runs)."""
        return format_dump(self.to_json_dict())

    def to_json_dict(self) -> dict:
        """The canonical form as plain data: `canonical_var_order`'s
        variables and relations, each relation printed once."""
        p = self.canonical_var_order()
        return {
            "vars": [
                {"name": v.name, "degree": v.degree, "cap": v.cap}
                for v in p.table.vars
            ],
            "relations": [str(r) for r in p.relations],
            "top_degree": p.top_degree,
        }

    def __repr__(self):
        return (
            f"Presentation({len(self.table)} vars, "
            f"{len(self.relations)} relations, top degree {self.top_degree})"
        )


def format_dump(record: dict) -> str:
    """The plain-text form of a `Presentation.to_json_dict` record."""
    lines = ["vars:"]
    for v in record["vars"]:
        cap = f" cap {v['cap']}" if v["cap"] is not None else ""
        lines.append(f"{v['name']} deg {v['degree']}{cap}")
    lines += [f"top-degree: {record['top_degree']}", "rel:", *record["relations"]]
    return "\n".join(lines) + "\n"
