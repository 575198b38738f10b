"""The preprojective algebra of type L_n with its canonical monomial basis.

The quiver has vertices 1..n, a loop eps at vertex 1 and arrow pairs
a_i: i -> i+1, ab_i: i+1 -> i.  The algebra is the path algebra modulo the
mesh relations sum_{i(a)=v} a*abar = 0, one per vertex.

Normal forms are computed degree by degree by linear elimination: in degree
d the spanning set {arrow * basis(d-1)} is reduced modulo the relation
vectors {r_v * b}, never by string rewriting, so no confluence argument is
needed.  Each graded piece e_i L_d e_j turns out to be at most
one-dimensional, which the build certifies together with the fact that the
canonical signed monomials form a basis.  All structure constants are
integers (in fact 0, 1 or -1); they are computed once over the rationals
and reduced into the requested field on demand.

No product table is stored.  Products follow a sign rule: m1 * m2 is
nonzero exactly when t(m1) = s(m2) and the graded piece
e_s(m1) L_(deg m1 + deg m2) e_t(m2) is nonzero, and it is then
(-1)^(g(m1) + g(m2) + g(m3)) m3, m3 the monomial of that piece and g one
bit per monomial: the sign cocycle of the basis is a coboundary.  Nothing
here proves the rule for every n, so the build certifies it against the
arrow action (`_certify_rule`), once per n, in O(dim^2 / n) time and O(dim)
memory.

Monomial ids are fixed once, before the build, as the positions of the
canonical (source, target, degree) keys in sorted order (`_integral_tables`);
that numbering is the column order of every downstream matrix.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactla import ExactMatrix, FieldSpec, det

QQ = FieldSpec(0)


class BasisMismatchError(RuntimeError):
    """The canonical monomial list failed to evaluate to a basis."""


class CenterMismatchError(RuntimeError):
    """The solved center does not match the expected description."""


class Arrow(namedtuple("Arrow", "index name source target bar")):
    """An arrow; `bar` is the index of the opposite arrow (eps is its own
    bar)."""

    __slots__ = ()


class Quiver:
    """Double quiver of the graph L_n: a line with a loop at vertex 1."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        arrows = [Arrow(0, "eps", 1, 1, 0)]
        for i in range(1, n):
            arrows.append(Arrow(2 * i - 1, f"a{i}", i, i + 1, 2 * i))
            arrows.append(Arrow(2 * i, f"ab{i}", i + 1, i, 2 * i - 1))
        self.arrows = arrows
        self.arrows_from = {v: [a for a in arrows if a.source == v] for v in self.vertices}
        self.arrows_into = {v: [a for a in arrows if a.target == v] for v in self.vertices}

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def bar(self, a: Arrow) -> Arrow:
        return self.arrows[a.bar]


class BasisMonomial:
    """A read-only basis monomial; `path` holds arrow indices in composition
    order (leftmost applied last).  One list of them serves every field of
    an n (`_INTEGRAL_CACHE`)."""

    # not a named tuple: `.degree` is read in the innermost lifting loops
    __slots__ = ("mid", "source", "target", "degree", "path", "sign")

    def __init__(self, mid: int, source: int, target: int, degree: int,
                 path: Tuple[int, ...], sign: int):
        put = object.__setattr__
        put(self, "mid", mid)
        put(self, "source", source)
        put(self, "target", target)
        put(self, "degree", degree)
        put(self, "path", path)
        put(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError(f"BasisMonomial is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"BasisMonomial is read-only: cannot delete {name!r}")


EPS = 0  # arrow index of the loop


def _canonical_paths(quiver: Quiver) -> Dict[Tuple[int, int, int], Tuple[Tuple[int, ...], int]]:
    """Signed paths of the canonical basis, keyed by (source, target, degree).

    For source 1 the elements are eps^t a_1..a_{j-1}; for 1 < i <= j they
    split into the hook family a_i..a_{j-1+k} ab_{j-1+k}..ab_j and the
    odd-loop family ab_{i-1}..ab_1 eps^{2t+1} a_1..a_{j-1}, whose top
    diagonal element carries the sign (-1)^{i(i-1)/2}.  Entries with source
    above target are the bar-reverses of their mirrors.
    """
    n = quiver.n
    a_idx = {i: 2 * i - 1 for i in range(1, n)}
    ab_idx = {i: 2 * i for i in range(1, n)}

    def up(lo, hi):  # a_lo a_{lo+1} .. a_hi
        return tuple(a_idx[i] for i in range(lo, hi + 1))

    def down(hi, lo):  # ab_hi ab_{hi-1} .. ab_lo
        return tuple(ab_idx[i] for i in range(hi, lo - 1, -1))

    out: dict = {}

    def put(i, j, path, sign=1):
        out[(i, j, len(path))] = (path, sign)

    for j in range(1, n + 1):
        for t in range(0, 2 * (n - j) + 2):
            put(1, j, (EPS,) * t + up(1, j - 1))
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            for k in range(0, n - j + 1):
                put(i, j, up(i, j - 1 + k) + down(j - 1 + k, j))
            for t in range(0, n - j + 1):
                sign = 1
                if i == j and t == n - i:
                    sign = (-1) ** (i * (i - 1) // 2)
                put(i, j, down(i - 1, 1) + (EPS,) * (2 * t + 1) + up(1, j - 1), sign)

    def bar_path(path):
        return tuple(quiver.arrows[a].bar for a in reversed(path))

    for (i, j, d), (path, sign) in sorted(out.items()):
        if i < j:
            out[(j, i, d)] = (bar_path(path), sign)
    return out


class AlgebraTable:
    """P(L_n) over a fixed field: basis, product rule, Cartan data.

    Immutable after construction.  `mono_mul(m1, m2)` is None (the product
    vanishes) or a pair (integer coefficient, monomial id), read off the sign
    rule with the bits `g` (see the module docstring); each graded piece is
    at most one-dimensional, so single terms suffice.
    """

    def __init__(self, n: int, field: FieldSpec, basis, g):
        self.n = n
        self.field = field
        self.quiver = Quiver(n)
        self.basis: List[BasisMonomial] = basis
        self.dim = len(basis)
        self.by_ijd = {(m.source, m.target, m.degree): m.mid for m in basis}
        # The rule as one flat list, O(dim) in size.  The piece (s, t, d)
        # sits at p = ((s-1) n + t-1) W + d, with W = 4n - 1 above every sum
        # of two degrees, and a composable pair (m1, m2) reads entry
        #   3p + g(m1) + g(m2) = rule_left[m1] + rule_right[m2],
        # p that of (s(m1), t(m2), deg m1 + deg m2): None where that piece is
        # zero or above degree 2n - 1, else (+-1, m3), the sign of m3 folded
        # into each of the three parities.
        width = 4 * n - 1
        self.sources = [m.source for m in basis]
        self.targets = [m.target for m in basis]
        self.rule_left = [3 * ((m.source - 1) * n * width + m.degree) + g[m.mid] for m in basis]
        self.rule_right = [3 * ((m.target - 1) * width + m.degree) + g[m.mid] for m in basis]
        self.rule: List[Optional[Tuple[int, int]]] = [None] * (3 * n * n * width)
        for m in basis:
            p = 3 * (((m.source - 1) * n + m.target - 1) * width + m.degree)
            sign = (-1) ** g[m.mid]
            self.rule[p] = self.rule[p + 2] = (sign, m.mid)
            self.rule[p + 1] = (-sign, m.mid)
        self.by_ends: Dict[Tuple[int, int], List[BasisMonomial]] = {}
        for m in basis:
            self.by_ends.setdefault((m.source, m.target), []).append(m)
        # the monomials of e_v L and of L e_v, each in basis order
        self.starting_at = {v: [m for u in self.quiver.vertices
                                for m in self.by_ends.get((v, u), ())]
                            for v in self.quiver.vertices}
        self.ending_at = {v: [m for u in self.quiver.vertices
                              for m in self.by_ends.get((u, v), ())]
                          for v in self.quiver.vertices}
        self.e_ids = {i: self.by_ijd[(i, i, 0)] for i in self.quiver.vertices}
        self.socle_ids = {i: self.by_ijd[(i, i, 2 * n - 1)] for i in self.quiver.vertices}
        self.arrow_ids = {a.index: self.by_ijd[(a.source, a.target, 1)]
                          for a in self.quiver.arrows}
        self.cartan = [[len(self.by_ends.get((i, j), ())) for j in self.quiver.vertices]
                       for i in self.quiver.vertices]
        self.top_degree = 2 * n - 1
        self._center = None
        self._x0_powers = None

    # -- element helpers ----------------------------------------------------

    def unit(self) -> dict:
        one = self.field.one
        return {self.e_ids[i]: one for i in self.quiver.vertices}

    def monomial_element(self, mid: int, coeff=None) -> dict:
        return {mid: self.field.one if coeff is None else self.field(coeff)}

    def mono_mul(self, m1: int, m2: int) -> Optional[Tuple[int, int]]:
        if self.targets[m1] != self.sources[m2]:
            return None
        return self.rule[self.rule_left[m1] + self.rule_right[m2]]

    def serialize(self) -> dict:
        """Canonical JSON-ready description (basis with paths/signs, products)."""
        arrows = [{"name": a.name, "source": a.source, "target": a.target}
                  for a in self.quiver.arrows]
        basis = [{"id": m.mid, "source": m.source, "target": m.target,
                  "degree": m.degree, "sign": m.sign,
                  "path": [self.quiver.arrows[a].name for a in m.path]}
                 for m in self.basis]
        # starting_at lists each m2 composable with m1 in id order
        triples = [[m1.mid, m2.mid, *hit] for m1 in self.basis
                   for m2 in self.starting_at[m1.target]
                   if (hit := self.mono_mul(m1.mid, m2.mid)) is not None]
        return {"n": self.n, "characteristic": self.field.characteristic,
                "dimension": self.dim, "arrows": arrows, "basis": basis,
                "products": triples}


def build_algebra(n: int, field: FieldSpec) -> AlgebraTable:
    """Construct P(L_n) over `field`, certifying the canonical basis and the
    product rule (`_integral_tables`)."""
    basis, g, _ = _integral_tables(n)
    table = AlgebraTable(n, field, basis, g)
    expected = n * (n + 1) * (2 * n + 1) // 3
    if table.dim != expected:
        raise BasisMismatchError(f"dimension {table.dim}, expected {expected}")
    return table


_INTEGRAL_CACHE: dict = {}


def _arrow_bit(index: int) -> int:
    """g on the arrows: 1 on ab_i for odd i (arrow index 2i), else 0."""
    return int(index % 4 == 2)


def _integral_tables(n: int):
    """Basis monomials, their sign bits g and the integer arrow action,
    built over Q once per n."""
    if n in _INTEGRAL_CACHE:
        return _INTEGRAL_CACHE[n]
    quiver = Quiver(n)
    canonical = _canonical_paths(quiver)
    max_degree = 2 * n - 1

    # numbered up front; each degree below raises unless it certifies exactly
    # the canonical keys of that degree, so a lookup of a lower degree sees
    # only certified monomials
    basis = [BasisMonomial(mid, i, j, d, *canonical[(i, j, d)])
             for mid, (i, j, d) in enumerate(sorted(canonical))]
    by_ijd = {(m.source, m.target, m.degree): m.mid for m in basis}
    g = [0] * len(basis)

    # act[(arrow index, mid)] -> (int coeff, mid) or None, for every
    # composable pair with deg(mid) < 2n-1
    act: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}

    prev_degree = [by_ijd[(i, i, 0)] for i in quiver.vertices]
    for d in range(1, max_degree + 1):
        current = []
        blocks: Dict[Tuple[int, int], list] = {}
        for mid in prev_degree:
            m = basis[mid]
            for a in quiver.arrows_into[m.source]:
                blocks.setdefault((a.source, m.target), []).append((a.index, mid))
        for (i, j), span in sorted(blocks.items()):
            # at most one relation per block: r_i * b with b the unique
            # monomial of e_i L_{d-2} e_j, expanded through the act table
            rel = None
            if d >= 2 and (i, j, d - 2) in by_ijd:
                b = by_ijd[(i, j, d - 2)]
                vec: dict = {}
                for a in quiver.arrows_from[i]:
                    hit = act[(a.bar, b)]
                    if hit is not None:
                        c, mid2 = hit
                        key = (a.index, mid2)
                        vec[key] = vec.get(key, 0) + c
                rel = {k: v for k, v in vec.items() if v != 0}
            reduction = _reduce_block(span, rel)
            if reduction is None:
                if (i, j, d) in canonical:
                    raise BasisMismatchError(
                        f"canonical monomial for ({i},{j},{d}) evaluates to zero")
                for a, mid in span:
                    act[(a, mid)] = None
                continue
            if (i, j, d) not in canonical:
                raise BasisMismatchError(
                    f"graded piece ({i},{j},{d}) is nonzero but has no canonical monomial")
            path, sign = canonical[(i, j, d)]
            value = _evaluate_path(path, sign, by_ijd, act, quiver)
            free_key, expand = reduction
            if value is None:
                raise BasisMismatchError(
                    f"canonical monomial for ({i},{j},{d}) evaluates to zero")
            coeff, key_eval = value
            if key_eval not in expand:
                raise BasisMismatchError("evaluation left the expected block")
            c_eval = coeff * expand[key_eval]
            mono = by_ijd[(i, j, d)]
            current.append(mono)
            for key, c in expand.items():
                q = Fraction(c, c_eval)
                if q.denominator != 1 or abs(q) != 1:
                    raise BasisMismatchError(f"non-unit structure constant {q}")
                act[key] = (int(q), mono)
            # g from the first arrow product a * m' = c * mono of the path
            g[mono] = (_arrow_bit(key_eval[0]) + g[key_eval[1]] + (act[key_eval][0] < 0)) % 2
        got = {(basis[m].source, basis[m].target, d) for m in current}
        expected_d = {k for k in canonical if k[2] == d}
        if got != expected_d:
            raise BasisMismatchError(f"degree {d} basis mismatch: {got ^ expected_d}")
        prev_degree = current

    # the rule reads the same integers over every field: certified once per n
    _certify_rule(AlgebraTable(n, QQ, basis, g), act)
    _INTEGRAL_CACHE[n] = (basis, g, act)
    return _INTEGRAL_CACHE[n]


def _reduce_block(span, rel):
    """Quotient a spanning block by its (single) relation vector.

    Returns None if the block dies, otherwise (free spanning key, mapping
    spanning key -> nonzero integer coefficient on the free key).  Blocks
    have at most two spanning elements and one relation, so this is a
    direct case analysis rather than a general elimination.  A relation
    that kills one of two spanning elements raises: that arrow product
    would vanish in a nonzero piece, against the product rule.
    """
    span = sorted(span)
    if not rel:
        if len(span) != 1:
            raise BasisMismatchError(f"free block with {len(span)} spanning elements")
        key = span[0]
        return key, {key: 1}
    if set(rel) - set(span):
        raise BasisMismatchError("relation leaves the spanning block")
    if len(span) == 1:
        return None
    if len(span) == 2:
        k0, k1 = span
        if set(rel) != {k0, k1}:
            raise BasisMismatchError(f"an arrow product vanishes in a nonzero piece: {rel}")
        q = Fraction(-rel[k1], rel[k0])
        if q.denominator != 1:
            raise BasisMismatchError("non-integral reduction")
        return k1, {k1: 1, k0: int(q)}
    raise BasisMismatchError(f"block with {len(span)} spanning elements")


def _evaluate_path(path, sign, by_ijd, act, quiver):
    """Evaluate a signed arrow path through the act table.

    Returns (coefficient, spanning key) where the key is the (arrow,
    monomial) pair the evaluation lands on, or None if it vanishes earlier.
    """
    last = quiver.arrows[path[-1]]
    key = (last.index, by_ijd[(last.target, last.target, 0)])
    coeff = sign
    for a in reversed(path[:-1]):
        hit = act[key]
        if hit is None:
            return None
        c, mid = hit
        coeff *= c
        key = (a, mid)
    return coeff, key


def _certify_rule(t: AlgebraTable, act) -> None:
    """Raise BasisMismatchError unless `t.mono_mul` is the product of P(L_n).

    Two checks on the table's own rule:
      1. every entry of `act` (each arrow * monomial product, zero or not)
         equals `mono_mul`;
      2. for each m of degree d >= 1, with first arrow a and tail m' (the
         monomial of e_t(a) L_(d-1) e_t(m), which the build loop evaluated
         a * m' = +-m from), and each m2 starting at t(m): if the entry
         `mono_mul` reads for m * m2 is nonzero, so is the one for m' * m2.

    Soundness: m1 * m2 = mono_mul(m1, m2) for all m1, m2.  A pair that does
    not compose is refused by `mono_mul` itself, and an idempotent e_s reads
    each m2 starting at s off m2's own piece with sign +1 (g = 0 on
    idempotents).  For m1 of degree d >= 1, by induction on d: check 1 gives
    a * m' = mono_mul(a, m'), which lies in the piece of m1, so
    m1 = (-1)^(g(a)+g(m')+g(m1)) a * m' and m1 * m2 = +-a * (m' * m2).  By
    induction m' * m2 is zero where its piece is, and then so is the piece
    of m1 * m2 (check 2): both sides vanish.  Otherwise
    m' * m2 = (-1)^(g(m')+g(m2)+g(M')) M', and a * M' =
    (-1)^(g(a)+g(M')+g(M)) M is nonzero exactly when the piece of m1 * m2 is
    (check 1; a product above degree 2n - 1 vanishes on both sides).  In
    the product of the three signs g(a), g(m') and g(M') each appear twice
    and cancel, which leaves (-1)^(g(m1)+g(m2)+g(M)).
    """
    for (a, mid), hit in act.items():
        if t.mono_mul(t.arrow_ids[a], mid) != hit:
            raise BasisMismatchError(
                f"arrow {t.quiver.arrows[a].name} times monomial {mid} breaks the sign rule")
    rule, left = t.rule, t.rule_left
    rights = {v: [t.rule_right[m.mid] for m in ms] for v, ms in t.starting_at.items()}
    for m in t.basis:
        if m.degree == 0:
            continue
        tail = t.by_ijd[(t.quiver.arrows[m.path[0]].target, m.target, m.degree - 1)]
        lm, lt = left[m.mid], left[tail]
        if [r for r in rights[m.target] if rule[lm + r] is not None and rule[lt + r] is None]:
            raise BasisMismatchError(
                f"a product of monomial {m.mid} is nonzero where its tail's is zero")


# -- element arithmetic ------------------------------------------------------


def elem_add(t: AlgebraTable, x: dict, y: dict) -> dict:
    F = t.field
    out = dict(x)
    for k, v in y.items():
        s = F.add(out.get(k, F.zero), v)
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def elem_scale(t: AlgebraTable, c, x: dict) -> dict:
    F = t.field
    c = F(c)
    if c == 0:
        return {}
    return {k: F.mul(c, v) for k, v in x.items()}


def multiply(t: AlgebraTable, x: dict, y: dict) -> dict:
    """Exact product in the algebra, bilinear extension of `mono_mul`.

    Each coefficient is summed as plain numbers and coerced into the field
    once; the ones that cancel are dropped.
    """
    F = t.field
    mono_mul = t.mono_mul
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            hit = mono_mul(m1, m2)
            if hit is None:
                continue
            c, m3 = hit
            out[m3] = out.get(m3, 0) + c1 * c2 * c
    return {m: fv for m, v in out.items() if (fv := F(v)) != 0}


def elem_eq(x: dict, y: dict) -> bool:
    return {k: v for k, v in x.items() if v != 0} == {k: v for k, v in y.items() if v != 0}


def x0_powers(t: AlgebraTable) -> List[dict]:
    """[1, x0, x0^2, .., x0^n] for the degree-2 central generator
    x0 = sum_i (-1)^i a_i ab_i, built once per table by repeated
    multiplication; x0^n is 0.  Shared: read them, never change them."""
    if t._x0_powers is None:
        x0: dict = {}
        for i in range(1, t.n):
            a = t.arrow_ids[2 * i - 1]
            ab = t.arrow_ids[2 * i]
            term = multiply(t, t.monomial_element(a), t.monomial_element(ab))
            x0 = elem_add(t, x0, elem_scale(t, (-1) ** i, term))
        powers = [t.unit(), x0]
        for _ in range(t.n - 1):
            powers.append(multiply(t, powers[-1], x0))
        t._x0_powers = powers
    return t._x0_powers


def x0_element(t: AlgebraTable, power: int = 1) -> dict:
    """x0 raised to `power`, a fresh dict."""
    powers = x0_powers(t)
    return dict(powers[power]) if power < len(powers) else {}


def socle_basis(t: AlgebraTable) -> List[dict]:
    """The socle generators w_1..w_n; each is killed by every arrow."""
    return [t.monomial_element(t.socle_ids[i]) for i in t.quiver.vertices]


def center_basis(t: AlgebraTable) -> List[dict]:
    """Basis {1, x0, .., x0^(n-1), w_1, .., w_n} of the center, certified.

    The center is solved from scratch as the kernel of z -> (az - za for all
    arrows a) on the span of the diagonal monomials; the solved dimension
    must be 2n and must match the span of the listed elements.
    """
    if t._center is not None:
        return t._center
    F = t.field
    diag = [m.mid for i in t.quiver.vertices for m in t.by_ends[(i, i)]]
    entries = []  # (arrow, monomial) row key, column, value
    for j, mid in enumerate(diag):
        for a in t.quiver.arrows:
            am = t.arrow_ids[a.index]
            left = t.mono_mul(am, mid)
            right = t.mono_mul(mid, am)
            if left is not None:
                entries.append(((a.index, left[1]), j, left[0]))
            if right is not None:
                entries.append(((a.index, right[1]), j, -right[0]))
    key_pos = {k: i for i, k in enumerate(sorted({k for k, _, _ in entries}))}
    kernel = ExactMatrix.from_entries(
        F, len(key_pos), len(diag),
        ((key_pos[k], j, c) for k, j, c in entries)).kernel_basis()
    if len(kernel) != 2 * t.n:
        raise CenterMismatchError(f"center dimension {len(kernel)}, expected {2 * t.n}")
    listed = x0_powers(t)[:t.n] + socle_basis(t)
    pos = {mid: r for r, mid in enumerate(diag)}
    span = ExactMatrix.from_columns(
        F, len(diag), [{pos[mid]: c for mid, c in z.items()} for z in listed])
    if span.rank() != 2 * t.n:
        raise CenterMismatchError("listed central elements are dependent")
    if None in span.solve_many(kernel):
        raise CenterMismatchError("solved center leaves the listed span")
    t._center = listed
    return listed


def cartan_matrix(t: AlgebraTable) -> Tuple[List[List[int]], int]:
    """Cartan matrix (dim e_i L e_j) and its exact integer determinant."""
    return t.cartan, int(det(t.cartan, QQ))
