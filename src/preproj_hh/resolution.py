"""Minimal projective bimodule resolution of P(L_n), with period 6.

Terms are direct sums of elementary bimodules L e_s (x) e_t L;  a map
between such sums is stored by its values on the generators e_s (x) e_t,
each value a dict {(target summand, left monomial, right monomial):
coefficient} of nonzero field scalars.  Keys cannot repeat and order does
not matter, so a map is canonical by construction: two maps are equal
exactly when their dicts are.  One kernel, `expand`, evaluates a map on an
element x (x) y, adding scale times its value into a dict of plain sums that
the caller passes; it reads the algebra's product rule inline, the lookup of
`AlgebraTable.mono_mul` without the call and without the composability test,
which well-formed maps make needless.  `compose` and `flatten_map` read
it, and each coerces a sum into the field once, as `BimoduleMap.from_terms`
does; the lifting systems of the product engine walk the rule the same way
inline and leave their sums to the elimination to coerce.  The initial
differentials delta, R, k are the explicit ones; everything deeper is
produced by the tau-twist, which multiplies the right tensor factor of every
value term by (-1)^deg since tau negates arrows.  The window is certified by composing maps
symbolically (d.d = 0, periodicity) and by exact rank bookkeeping on the
one-sided complexes X (x)_L S_v, X the augmented window and S_v the simple
left modules: they are exact wherever X is, and at n=7 have 280 to 546
columns where the flattened terms have 12,656 to 24,752.  The flattened
ranks of the exactness section then follow from the dimensions; the
flattened maps are ranked only as the witness of a window that fails.
`certify_exact` returns that section as the dict the certificate holds.
The window repeats with period 6: `repeats_period` checks d_m = d_(m-6)
between equal terms, map by map, and wherever it holds the certification
(and the cochain and tensor complexes built over the window) reuse the
work done for d_(m-6): d.d = 0 is composed and the one-sided maps are
built and ranked once per period.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from . import exactla
from .algebra import AlgebraTable
from .nakayama import NakayamaForm

Key = Tuple[int, int, int]  # (target summand, left mid, right mid)


class ProjectiveBimodule(namedtuple("ProjectiveBimodule", "kind summands")):
    """Equal by value: `kind` is "P" (vertex indexed) or "Q" (arrow
    indexed), `summands` the (source, target) of each summand."""

    __slots__ = ()


class BimoduleMap:
    """A map by its values on the source generators.

    Each value is a dict {key: nonzero field-canonical coefficient}, so a
    map built directly must be handed canonical dicts; `from_terms` makes
    them from literal terms.
    """

    # not a named tuple: `expand` reads `.table` and `.values` on every call
    __slots__ = ("table", "source", "target", "values")

    def __init__(self, table: AlgebraTable, source: ProjectiveBimodule,
                 target: ProjectiveBimodule, values: List[Dict[Key, object]]):
        self.table = table
        self.source = source
        self.target = target
        self.values = values  # one dict per source summand

    @classmethod
    def from_terms(cls, table: AlgebraTable, source: ProjectiveBimodule,
                   target: ProjectiveBimodule, term_lists) -> "BimoduleMap":
        """The map whose value on source summand i is the sum of the terms
        (target summand, coeff, left mid, right mid) of term_lists[i]."""
        F = table.field
        values = []
        for terms in term_lists:
            # summed as plain numbers, coerced into the field once per key
            acc: dict = {}
            for k, c, x, y in terms:
                acc[(k, x, y)] = acc.get((k, x, y), 0) + c
            values.append({key: fc for key, c in acc.items() if (fc := F(c)) != 0})
        return cls(table, source, target, values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def equals(self, other: "BimoduleMap") -> bool:
        """The same map: equal source and target terms and equal values."""
        return (self.source == other.source and self.target == other.target
                and self.values == other.values)

    def serialize(self) -> list:
        export = self.table.field.export
        return [[[k, export(c), x, y] for (k, x, y), c in sorted(terms.items())]
                for terms in self.values]


def projective_p(t: AlgebraTable) -> ProjectiveBimodule:
    return ProjectiveBimodule("P", tuple((i, i) for i in t.quiver.vertices))


def projective_q(t: AlgebraTable) -> ProjectiveBimodule:
    return ProjectiveBimodule("Q", tuple((a.source, a.target) for a in t.quiver.arrows))


def expand(f: BimoduleMap, k: int, x: int, y: int, scale, out: dict) -> dict:
    """Adds scale times f on the element x (x) y of source summand k into `out`.

    `out` is {(target summand, left monomial, right monomial): coefficient},
    the coefficients summed as plain numbers (not reduced into the field), so
    some may be zero; it is returned.
    """
    # the product rule read inline: a `mono_mul` call per lookup measured 8%
    # slower on the n=7 benchmark points.  Its composability test is skipped:
    # the summands of a well-formed map guarantee composability.
    t = f.table
    rule, left, right = t.rule, t.rule_left, t.rule_right
    lx, ry = left[x], right[y]
    for (k2, xd, yd), c in f.values[k].items():
        lhs = rule[lx + right[xd]]
        if lhs is None:
            continue
        rhs = rule[left[yd] + ry]
        if rhs is None:
            continue
        key = (k2, lhs[1], rhs[1])
        out[key] = out.get(key, 0) + scale * c * lhs[0] * rhs[0]
    return out


def compose(f: BimoduleMap, g: BimoduleMap) -> BimoduleMap:
    """f after g, on generators: expand f on each value term of g."""
    t = f.table
    F = t.field
    if g.target.summands != f.source.summands:
        raise ValueError("composition shape mismatch")
    values = []
    for terms in g.values:
        # summed as plain numbers, coerced into the field once per key
        acc: dict = {}
        for (k, x, y), c in terms.items():
            expand(f, k, x, y, c, acc)
        values.append({key: fc for key, c in acc.items() if (fc := F(c)) != 0})
    # canonical: one coerced, nonzero coefficient per key
    return BimoduleMap(t, g.source, f.target, values)


def tau_twist(m: BimoduleMap, eps: int = 1) -> BimoduleMap:
    """eps times the twist of m by the automorphism fixing vertices and
    negating arrows, for eps in {1, -1}.

    The twist multiplies each coefficient by (-1)^deg y, y the right factor
    of its key, so eps tau(m) has the keys of m, each coefficient kept or
    negated in the field (-1 becomes p-1 over F_p).
    """
    basis, neg = m.table.basis, m.table.field.neg
    values = [{key: c if (basis[key[2]].degree % 2 == 0) == (eps == 1) else neg(c)
               for key, c in terms.items()} for terms in m.values]
    # canonical: the keys of m, each coefficient kept or negated in the field
    return BimoduleMap(m.table, m.source, m.target, values)


def delta_map(t: AlgebraTable) -> BimoduleMap:
    P, Q = projective_p(t), projective_q(t)
    values = []
    for idx, a in enumerate(t.quiver.arrows):
        amid = t.arrow_ids[a.index]
        values.append([
            (a.target - 1, 1, amid, t.e_ids[a.target]),
            (a.source - 1, -1, t.e_ids[a.source], amid),
        ])
    return BimoduleMap.from_terms(t, Q, P, values)


def r_map(t: AlgebraTable) -> BimoduleMap:
    P, Q = projective_p(t), projective_q(t)
    arrow_pos = {a.index: k for k, a in enumerate(t.quiver.arrows)}
    values = []
    for i in t.quiver.vertices:
        terms = []
        for a in t.quiver.arrows_from[i]:
            abar = t.quiver.bar(a)
            terms.append((arrow_pos[a.index], 1, t.e_ids[i], t.arrow_ids[abar.index]))
            terms.append((arrow_pos[abar.index], 1, t.arrow_ids[a.index], t.e_ids[i]))
        values.append(terms)
    return BimoduleMap.from_terms(t, P, Q, values)


def k_map(t: AlgebraTable, form: NakayamaForm) -> BimoduleMap:
    P = projective_p(t)
    F = t.field
    values = []
    for i in t.quiver.vertices:
        terms = []
        for m in t.starting_at[i]:
            s, dual_mid = form.dual[m.mid]
            s_int = 1 if s == F.one else -1 if s == F(-1) else None
            if s_int is None:
                raise ValueError("non-unit dual scalar")
            terms.append((m.target - 1, (-1) ** m.degree * s_int, m.mid, dual_mid))
        values.append(terms)
    return BimoduleMap.from_terms(t, P, P, values)


class ResolutionWindow:
    """Terms P^0..P^-depth with differentials d[1..depth], d[m]: P^-m -> P^-(m-1)."""

    # not a named tuple: tests reassign its fields to build failing inputs
    __slots__ = ("table", "depth", "terms", "diffs", "gen_degrees")

    def __init__(self, table: AlgebraTable, depth: int, terms: List[ProjectiveBimodule],
                 diffs: List[Optional[BimoduleMap]], gen_degrees: List[int]):
        self.table = table
        self.depth = depth
        self.terms = terms
        self.diffs = diffs              # index m uses diffs[m]; diffs[0] is None
        self.gen_degrees = gen_degrees  # internal degree of the generators of each term


def build_resolution(t: AlgebraTable, form: NakayamaForm, depth: int) -> ResolutionWindow:
    """Window of the resolution; terms alternate P,Q,P with Q at index 1 mod 3."""
    if depth < 3:
        raise ValueError("depth must be at least 3")
    P, Q = projective_p(t), projective_q(t)
    terms = [Q if m % 3 == 1 else P for m in range(depth + 1)]
    diffs: List[Optional[BimoduleMap]] = [None, delta_map(t), r_map(t), k_map(t, form)]
    for m in range(4, depth + 1):
        diffs.append(tau_twist(diffs[m - 3]))
    gen_degrees = [0]
    for m in range(1, depth + 1):
        step = (2 * t.n - 1) if m % 3 == 0 else 1
        gen_degrees.append(gen_degrees[m - 1] + step)
    return ResolutionWindow(t, depth, terms, diffs, gen_degrees)


def repeats_period(w: ResolutionWindow, m: int) -> bool:
    """Whether d_m equals d_(m-6) between equal terms: P_m = P_(m-6),
    P_(m-1) = P_(m-7), and the two maps equal as value dicts on those
    terms (`BimoduleMap.equals`), which are canonical by construction.

    Every layer that reuses the work of d_(m-6) for d_m asks this at the time
    it reads the maps; no verdict is kept on the window, whose maps may be
    replaced after it is built.
    """
    return (m > 6 and w.terms[m] == w.terms[m - 6]
            and w.terms[m - 1] == w.terms[m - 7]
            and w.diffs[m].equals(w.diffs[m - 6]))


def _term_basis(t: AlgebraTable, term: ProjectiveBimodule):
    return [(k, x.mid, y.mid) for k, (s, tt) in enumerate(term.summands)
            for x in t.ending_at[s] for y in t.starting_at[tt]]


def flat_dim(t: AlgebraTable, term: ProjectiveBimodule) -> int:
    return sum(len(t.ending_at[s]) * len(t.starting_at[tt]) for (s, tt) in term.summands)


def _blocked_rank(t: AlgebraTable, f: BimoduleMap, p: int) -> int:
    """Rank of the flattened map over F_p, or over Q when p is 0.

    The flattening preserves (source vertex of the left factor, target vertex
    of the right factor), so the matrix is block diagonal over those pairs;
    sparse elimination never combines rows of different blocks, so one call
    ranks all blocks at once.
    """
    return _rank(list(flatten_map(f).values()), p)


def flatten_map(f: BimoduleMap):
    """Integer column dict per source basis triple, keyed by target triple."""
    return {(k, x, y): {key: v for key, v in expand(f, k, x, y, 1, {}).items() if v != 0}
            for (k, x, y) in _term_basis(f.table, f.source)}


def _one_sided_basis(t: AlgebraTable, term: ProjectiveBimodule):
    """Basis (k, x, e_t) of the term tensored with every simple S_v at once.

    L e_s (x) e_t L (x)_L S_v is L e_s when t = v and zero otherwise, so each
    summand k = (s, t) contributes x (x) e_t for the x in L e_s, in the block
    of the vertex t.
    """
    return [(k, m.mid, t.e_ids[v]) for k, (s, v) in enumerate(term.summands)
            for m in t.ending_at[s]]


def one_sided_columns(f: BimoduleMap) -> List[dict]:
    """Columns of f (x)_L S_v over every vertex v, keyed by (summand, left monomial).

    f sends x (x) e_t to the sum of c (x x') (x) (y' e_t) over its value terms
    c at (k2, x', y').  Only the terms with y' = e_t survive: a right factor of
    positive degree acts as zero on S_v, and e_t e_t = e_t.
    """
    t = f.table
    kept = [[(k2, c, xd) for (k2, xd, yd), c in terms.items() if yd == t.e_ids[v]]
            for terms, (_, v) in zip(f.values, f.source.summands)]
    columns = []
    mono_mul = t.mono_mul
    for k, x, _ in _one_sided_basis(t, f.source):
        col: dict = {}
        for k2, c, xd in kept[k]:
            hit = mono_mul(x, xd)
            if hit is not None:
                key = (k2, hit[1])
                col[key] = col.get(key, 0) + c * hit[0]
        columns.append({key: c for key, c in col.items() if c != 0})
    return columns


def _augmentation_columns(t: AlgebraTable, term: ProjectiveBimodule) -> List[dict]:
    """Columns of P_0 (x)_L S_v -> L (x)_L S_v = S_v over every vertex v.

    x (x) e_v goes to x e_v, which survives in S_v only when it is e_v.
    """
    columns = []
    for _, x, e in _one_sided_basis(t, term):
        hit = t.mono_mul(x, e)
        columns.append({e: hit[0]} if hit is not None and hit[1] == e else {})
    return columns


def _rank(columns: List[dict], p: int) -> int:
    """Rank over F_p, or over Q when p is 0."""
    if p:
        return exactla.rank_mod_p(columns, p)
    return exactla.sparse_rank(columns, exactla.FieldSpec(0))


# Exactness is certified one-sidedly, on X (x)_L S_v for the simple left
# modules S_v, where X is the augmented window P_depth -> ... -> P_0 -> L.
# Every term of X (each L e_s (x) e_t L, and L) is projective as a right
# L-module, so X (x)_L - takes a short exact sequence of left modules to a
# short exact sequence of complexes.  Along a composition series of the left
# regular module L, whose factors are the S_v, the long exact homology
# sequence then gives: if X (x)_L S_v is exact at position m for every v,
# so is X (x)_L L = X (Butler-King 1999; Happel 1989).  This needs X to be a
# complex, so it is used only once d.d = 0 and u o d1 = 0 hold exactly.  All
# vertices are ranked at once: the one-sided maps are block diagonal over v.
# Exactness of X then fixes the flattened ranks by the dimensions alone:
# rank u = dim L and rank d_(m+1) = dim P_m - rank d_m.
#
# Prime used to pin rational ranks.  The one-sided maps are integer matrices
# and (d (x) S)(d' (x) S) = (d d') (x) S = 0 by the exact d.d = 0 and
# u o d1 = 0 checks, so mod-p ranks satisfying rank(d_i) + rank(d_{i+1}) =
# dim at every term force the rational ranks to the same values: rank_Q >=
# rank_p for integer matrices, while rank_Q(d_i) + rank_Q(d_{i+1}) <= dim
# because the image of d_{i+1} lies in the kernel of d_i.  Equality mod p
# therefore certifies the rational ranks.  When it fails, the one-sided maps
# are eliminated over Q instead.
#
# Only where one-sided exactness cannot be certified are the flattened maps
# ranked, every d_m directly, as the failure witness.
_SANDWICH_PRIME = 97


def certify_exact(w: ResolutionWindow) -> Tuple[dict, int]:
    """Verify d.d = 0, minimality, periodicity and window exactness.

    Returns the certificate's exactness section and the number of one-sided
    maps ranked, which goes to the header only."""
    if w.depth < 6:
        raise ValueError("need depth at least 6")
    t = w.table
    failures: List[str] = []

    repeats = [repeats_period(w, m) for m in range(w.depth + 1)]
    periodic_failures = [f"d{m - 6} != d{m}" for m in range(7, w.depth + 1)
                         if not repeats[m]]
    periodic = not periodic_failures

    # d.d = 0 once per period.  `compose` reads nothing but the value dicts
    # of its factors.  So where every d_(m+6) repeats d_m, checked exactly
    # just above (`repeats_period`), the pair d_m o d_(m+1) for m > 6 is the
    # pair m-6 term for term and vanishes exactly when that one does.  Such
    # a pair takes its verdict, and its failure line, from its partner; a
    # window that is not periodic composes every pair.
    dd = True
    pair_zero = {}
    for m in range(1, w.depth):
        if periodic and m > 6:
            pair_zero[m] = pair_zero[m - 6]
        else:
            pair_zero[m] = compose(w.diffs[m], w.diffs[m + 1]).is_zero()
        if not pair_zero[m]:
            dd = False
            failures.append(f"d{m} o d{m + 1} != 0")

    aug = True
    for terms in w.diffs[1].values:
        acc: dict = {}
        for (_, x, y), c in terms.items():
            hit = t.mono_mul(x, y)
            if hit is not None:
                cc, m3 = hit
                acc[m3] = acc.get(m3, 0) + c * cc
        if any(t.field(v) != 0 for v in acc.values()):
            aug = False
            failures.append("u o d1 != 0")

    minimal = True
    for m in range(1, w.depth + 1):
        for terms in w.diffs[m].values:
            for _, x, y in terms:
                if t.basis[x].degree == 0 and t.basis[y].degree == 0:
                    minimal = False
                    failures.append(f"d{m} has a scalar value term")

    failures.extend(periodic_failures)

    p = t.field.characteristic or _SANDWICH_PRIME
    method = f"native mod {p}" if t.field.characteristic else (
        f"mod {p} ranks pinned by exact d.d = 0 and dimension counts")
    # maps[m] is d_m (x) S over every vertex and maps[0] the augmentation;
    # the columns of maps[m] are the basis of P_m (x) S.  Once per period:
    # where d_m repeats d_(m-6) (`repeats_period`: equal terms, equal value
    # dicts), maps[m] is maps[m-6] and so is its rank.  The columns read
    # only the value dicts and the source summands of d_m, which are
    # canonical by construction, so equal maps give equal matrices and one
    # rank.  A map that does not repeat is built and ranked on its own.
    maps = [_augmentation_columns(t, w.terms[0])]
    for m in range(1, w.depth + 1):
        maps.append(maps[m - 6] if repeats[m] else one_sided_columns(w.diffs[m]))
    ranked = 0

    def one_sided_exact(q: int) -> bool:
        nonlocal ranked
        r = []
        for m, columns in enumerate(maps):
            if repeats[m]:
                r.append(r[m - 6])
            else:
                r.append(_rank(columns, q))
                ranked += 1
        return r[0] == t.n and all(r[m] + r[m + 1] == len(maps[m])
                                   for m in range(w.depth))

    exact = one_sided_exact(p)
    if not exact and t.field.characteristic == 0:
        # the pinning prime failed to exhibit exactness; fall back to honest
        # rational elimination before reporting anything
        method = "rational sparse elimination (mod-p pinning failed)"
        p = 0
        exact = one_sided_exact(p)

    dims = [flat_dim(t, term) for term in w.terms]
    if exact and dd and aug:
        u_rank = t.dim
        ranks = [0, dims[0] - u_rank]  # index m holds rank of d_m
        for m in range(1, w.depth):
            ranks.append(dims[m] - ranks[m])
    else:
        # failure witness: the flattened ranks, every d_m ranked directly
        ranks = [0] + [_blocked_rank(t, w.diffs[m], p) for m in range(1, w.depth + 1)]
        # augmentation: rank of x (x) y -> xy
        u_rows = []
        for (k, x, y) in _term_basis(t, w.terms[0]):
            hit = t.mono_mul(x, y)
            u_rows.append({} if hit is None else {hit[1]: hit[0]})
        u_rank = _rank(u_rows, p)

    exact_at = []
    ok0 = (u_rank == t.dim) and (ranks[1] + u_rank == dims[0])
    exact_at.append(ok0)
    if not ok0:
        failures.append("exactness fails at the augmented end")
    for m in range(1, w.depth):
        ok = ranks[m] + ranks[m + 1] == dims[m]
        exact_at.append(ok)
        if not ok:
            failures.append(f"exactness fails at index {m}")

    if ranks[6] != t.dim:
        failures.append(f"image of d6 has dimension {ranks[6]}, expected {t.dim}")

    return {"depth": w.depth, "dd_zero": dd, "augmentation_zero": aug,
            "minimal": minimal, "periodic": periodic, "ranks": ranks,
            "flat_dims": dims, "exact_at": exact_at, "syzygy6_dim": ranks[6],
            "rank_method": method, "failures": failures,
            # sound: each flag above that is False appended a failure line
            "ok": not failures}, ranked
