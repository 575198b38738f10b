"""The explicit cochain complex computing Hochschild cohomology, and friends.

Spaces alternate between sums of loop pieces e_i L e_i and sums of parallel
pieces e_{i(a)} L e_{t(a)}, with six-periodic differentials.  Every explicit
differential matrix is cross-checked, entry for entry, against the map
obtained by dualizing the corresponding resolution differential through
Hom(L e_s (x) e_t L, L) = e_s L e_t; a mismatch raises ComplexMismatchError.
This is done once per period: where `repeats_period` finds d_(i+1) equal to
d_(i-5), d^i is the matrix of d^(i-6) itself, not rebuilt, compared,
composed or ranked again, and the tensor complex reuses its ranks the same
way.  A differential that breaks the period is built and checked on its own.

One deliberate deviation from the printed formula set: the parallels-to-
loops differential at the twisted spot is abar*p - p*abar, which is what
dualizing the twisted resolution differential actually yields (the two sign
conventions differ by a global -1 and have identical kernels and images;
the loop component, where p commutes with eps powers, cannot tell them
apart).

The homology dimensions come from an independently assembled tensor
complex, and the cyclic homology dimensions from the Connes-image
bookkeeping over it; dim L/[L, L], checked against HH_0, is ranked from the
brackets of the generators (idempotents and arrows) with the basis
monomials, which span [L, L].  Spaces are read off the table's `by_ends`
lists, and the dualized differential pulls the unit cochains back along d
in one batch (`pullback`).  `pullback` is the only place a cochain is
composed with a map, the Yoneda products included: one walk over the map's
value terms, keeping no index of them, gives one canonical cochain per
input.  It reads the algebra's product rule inline, as `resolution.expand`
does, and so does `scale_vector`, the action of a central element, in one
walk over the cochain's entries.  The canonical basis of each degree holds
that degree's one class solver: `CanonicalBasis.coords` reads the class of
a cocycle off [canonical cocycles | d^(degree-1)] as a sparse {index of a
canonical class: scalar} dict, empty exactly on coboundaries.
A cochain of V^i is a sparse dict {position in `spaces[i].basis`: nonzero
field-canonical scalar}, the vector format of `exactla`; it is canonical by
construction, so two cochains are equal exactly when their dicts are, and
the dualized d^i and the class solver matrix take cochains as their
columns as they are (`ExactMatrix.from_columns`), coercing nothing again.
`pullback` reads a map's coefficients as plain numbers and coerces only its
sums, so over F_p it composes with a map of Q coefficients in Z_(p), the
integral generator lifts of `yoneda`, as with that map reduced mod p.
The spaces depend on the product rule alone, never on the field, so the
integral lifter of an F_p engine reads them from the F_p complex.
Degrees 7..12 reuse the vectors of degree i-6, and its solver too wherever
d^(i-1) is the matrix of d^(i-7) itself; where both are shared, the
center-module checks take degree i-6's outcome as well.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraTable, multiply, socle_basis, x0_powers
from .exactla import (ExactMatrix, PreparedSolver, UnsupportedCharacteristicError,
                      sparse_rank)
from .nakayama import NakayamaForm
from .resolution import BimoduleMap, ResolutionWindow, build_resolution, repeats_period

LOOPS = "loops"
PARALLELS = "parallels"


class ComplexMismatchError(RuntimeError):
    """Explicit differential disagrees with the dualized resolution."""


class CanonicalBasisError(RuntimeError):
    pass


class CochainSpace(namedtuple("CochainSpace", "degree kind basis pos components")):
    """V^degree.  `basis` lists its (component, monomial id) coordinates, a
    component being a vertex for loops and an arrow index for parallels;
    `pos` is the position of each in `basis`, and `components` the
    component of each resolution summand."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


def _make_space(t: AlgebraTable, degree: int) -> CochainSpace:
    """V^degree: summand k of P^-degree, at (s, tt), is the component
    `components[k]`, with the monomials of e_s L e_tt as its coordinates."""
    kind = PARALLELS if degree % 3 == 1 else LOOPS
    if kind == LOOPS:
        pieces = [(i, (i, i)) for i in t.quiver.vertices]
    else:
        pieces = [(a.index, (a.source, a.target)) for a in t.quiver.arrows]
    basis = [(comp, m.mid) for comp, ends in pieces for m in t.by_ends.get(ends, ())]
    return CochainSpace(degree, kind, basis, {k: r for r, k in enumerate(basis)},
                        tuple(comp for comp, _ in pieces))


class CochainComplex:
    """Spaces V^0..V^maxdeg and differentials d^0..d^(maxdeg-1)."""

    def __init__(self, table: AlgebraTable, form: NakayamaForm, maxdeg: int = 13,
                 window: Optional[ResolutionWindow] = None):
        if maxdeg < 7:
            raise ValueError("maxdeg must be at least 7")
        self.table = table
        self.maxdeg = maxdeg
        self.window = window or build_resolution(table, form, maxdeg)
        self.spaces = [_make_space(table, i) for i in range(maxdeg + 1)]
        self.diffs: List[ExactMatrix] = []
        self.differentials_built = 0
        # Soundness of building d^i once per period.  The explicit matrix of
        # d^i reads only i mod 6 and the spaces V^i, V^(i+1), and `_make_space`
        # reads only the degree mod 3: so the explicit d^i is the explicit
        # d^(i-6) for every i >= 6.  The dual matrix reads only the spaces and
        # the value dicts of d_(i+1), which are canonical by construction.
        # Where `repeats_period` finds d_(i+1) equal to d_(i-5) between equal
        # terms, the dual d^i is the dual d^(i-6) as well, and both were
        # compared when d^(i-6) was built: d^i is that matrix, the same
        # object.  Where both factors of d^(i+1) d^i are such repeats, the
        # product is d^(i-5) d^(i-6), checked already.
        # A differential that does not repeat is built and cross-checked on
        # its own.
        for i in range(maxdeg):
            if i >= 6 and repeats_period(self.window, i + 1):
                self.diffs.append(self.diffs[i - 6])
                continue
            explicit = self._explicit_matrix(i)
            dual = self._dual_matrix(i)
            if explicit != dual:
                raise ComplexMismatchError(
                    f"differential {i}: explicit formula disagrees with the "
                    f"dualized resolution differential")
            self.diffs.append(explicit)
            self.differentials_built += 1
        for i in range(maxdeg - 1):
            if i >= 6 and self.diffs[i] is self.diffs[i - 6] \
                    and self.diffs[i + 1] is self.diffs[i - 5]:
                continue
            if any(map(self.diffs[i + 1].matvec, self.diffs[i].columns)):
                raise ComplexMismatchError(f"d{i + 1} o d{i} != 0")
        self._hh_ranks: Dict[int, int] = {}
        self._canonical_cache: Dict[int, "CanonicalBasis"] = {}

    # -- vectors -------------------------------------------------------------

    def vector_from_terms(self, degree: int, terms: Dict[Tuple[int, int], object]) -> dict:
        """The vector of {(component, monomial): number} terms, each coerced
        into the field once; the terms that vanish there are dropped."""
        pos, F = self.spaces[degree].pos, self.table.field
        return {pos[key]: fc for key, c in terms.items() if (fc := F(c))}

    def vector_from_components(self, degree: int, comps: Dict[int, dict]) -> dict:
        """Build a vector from {component: algebra element} values."""
        return self.vector_from_terms(
            degree, {(comp, mid): c for comp, elem in comps.items() for mid, c in elem.items()})

    def component_values(self, degree: int, vec: dict) -> Dict[int, dict]:
        basis = self.spaces[degree].basis
        out: Dict[int, dict] = {}
        for r, c in vec.items():
            comp, mid = basis[r]
            out.setdefault(comp, {})[mid] = c
        return out

    def scale_vector(self, degree: int, z: dict, vec: dict) -> dict:
        """Multiply every component value by the algebra element z, on the
        left; every caller passes a central z.

        One walk over the entries of `vec`: the entry v at (comp, mid) meets
        only the terms c z_m of z with m ending where mid starts, the pairs
        that `multiply` finds composable, and adds c v m.mid at comp.  So it
        equals `multiply` componentwise for any z, central or not.  The sums
        are plain numbers, coerced once (`vector_from_terms`).
        """
        # the product rule read inline, as in `pullback`
        t = self.table
        rule, left, right, sources = t.rule, t.rule_left, t.rule_right, t.sources
        ending: Dict[int, list] = {}
        for m, c in z.items():
            ending.setdefault(t.targets[m], []).append((left[m], c))
        basis = self.spaces[degree].basis
        acc: dict = {}
        for r, v in vec.items():
            comp, mid = basis[r]
            rm = right[mid]
            for lm, c in ending.get(sources[mid], ()):
                if hit := rule[lm + rm]:
                    key = (comp, hit[1])
                    acc[key] = acc.get(key, 0) + c * v * hit[0]
        return self.vector_from_terms(degree, acc)

    def diagonal_vector(self, degree: int, elem: dict) -> dict:
        """Embed a sum of oriented cycles into a loops-kind space."""
        return self.vector_from_terms(
            degree, {(self.table.basis[mid].source, mid): v for mid, v in elem.items()})

    def is_cocycle(self, degree: int, vec: dict) -> bool:
        if degree >= self.maxdeg:
            raise ValueError("degree beyond the built window")
        return not self.diffs[degree].matvec(vec)

    def span_with_coboundaries(self, degree: int, vectors: List[dict]) -> ExactMatrix:
        """Columns: the given vectors of V^degree, then the columns of d^(degree-1).

        Its rank is len(vectors) + rank d^(degree-1) exactly when the vectors
        are independent modulo coboundaries, and a solve against it reads off
        coordinates over the vectors.
        """
        columns = list(vectors)
        if degree > 0:
            columns += self.diffs[degree - 1].columns
        return ExactMatrix.from_columns(self.table.field, self.spaces[degree].dim, columns)

    # -- differentials ---------------------------------------------------------

    def _explicit_matrix(self, i: int) -> ExactMatrix:
        t = self.table
        src, tgt = self.spaces[i], self.spaces[i + 1]
        step = i % 6
        return ExactMatrix.from_entries(
            t.field, tgt.dim, src.dim,
            ((tgt.pos[key], col, coeff) for col, (comp, mid) in enumerate(src.basis)
             for key, coeff in self._explicit_image(step, comp, mid)))

    def _explicit_image(self, step: int, comp: int, mid: int):
        """Value terms ((component, monomial), coeff) of one basis cochain."""
        t = self.table
        out = []
        if step in (0, 3):  # loops -> parallels, untwisted vs twisted
            sign = -1 if step == 0 else 1
            for b in t.quiver.arrows_into[comp]:
                hit = t.mono_mul(t.arrow_ids[b.index], mid)
                if hit is not None:
                    out.append(((b.index, hit[1]), hit[0]))
            for b in t.quiver.arrows_from[comp]:
                hit = t.mono_mul(mid, t.arrow_ids[b.index])
                if hit is not None:
                    out.append(((b.index, hit[1]), sign * hit[0]))
        elif step in (1, 4):  # parallels -> loops
            a = t.quiver.arrows[comp]
            abar = t.arrow_ids[a.bar]
            right = t.mono_mul(mid, abar)
            left = t.mono_mul(abar, mid)
            # untwisted: p.abar + abar.p ; twisted: abar.p - p.abar
            if right is not None:
                out.append(((a.source, right[1]), right[0] if step == 1 else -right[0]))
            if left is not None:
                out.append(((a.target, left[1]), left[0]))
        elif step == 2:  # the zero map
            pass
        else:  # step 5: kills the radical, sends e_i to -sum_j dim(e_j L e_i) w_j
            if self.table.basis[mid].degree == 0:
                i_vertex = comp
                for j in t.quiver.vertices:
                    out.append(((j, t.socle_ids[j]), -t.cartan[j - 1][i_vertex - 1]))
        return out

    def pullback(self, f: BimoduleMap, i: int, j: int, vecs: List[dict]) -> List[dict]:
        """[phi o f for phi in vecs], for cochains phi of V^i and f: P^-j -> P^-i.

        One walk over the value terms of f: a term c x (x) y of summand k of
        P^-j that lands in summand k2 of P^-i meets the entries v at (comp,
        mid) of every phi, comp being summand k2's component (one per
        summand), and adds v c x.mid.y at summand k's component of V^j.
        Each output sums plain numbers and coerces them once
        (`vector_from_terms`), so it is a canonical cochain of V^j.
        """
        # the product rule read inline: a `mono_mul` call per lookup measured 8%
        # slower on the n=7 benchmark points.  Its composability test is skipped:
        # the summands of a well-formed map guarantee composability.
        t = self.table
        rule, left, right = t.rule, t.rule_left, t.rule_right
        src, tgt = self.spaces[i], self.spaces[j]
        # the entries of vecs, grouped by component as (output, right[mid], v)
        reads: Dict[int, list] = {}
        for out, vec in enumerate(vecs):
            for r, v in vec.items():
                comp, mid = src.basis[r]
                reads.setdefault(comp, []).append((out, right[mid], v))
        by_summand = [reads.get(comp) for comp in src.components]
        accs: List[dict] = [{} for _ in vecs]
        for k, terms in enumerate(f.values):
            tkey = tgt.components[k]
            for (k2, x, y), c in terms.items():
                if entries := by_summand[k2]:
                    # a product is a (coefficient, monomial) pair, or None where it vanishes
                    lx, ry = left[x], right[y]
                    for out, rm, v in entries:
                        if (lhs := rule[lx + rm]) and (rhs := rule[left[lhs[1]] + ry]):
                            acc, key = accs[out], (tkey, rhs[1])
                            acc[key] = acc.get(key, 0) + v * c * lhs[0] * rhs[0]
        return [self.vector_from_terms(j, acc) for acc in accs]

    def _dual_matrix(self, i: int) -> ExactMatrix:
        """d^i as the pull-back of the unit cochains of V^i along d_(i+1), in
        one batch: a walk per cochain would cost dim V^i walks over d."""
        units = [{r: 1} for r in range(self.spaces[i].dim)]
        return ExactMatrix.from_columns(
            self.table.field, self.spaces[i + 1].dim,
            self.pullback(self.window.diffs[i + 1], i, i + 1, units))

    # -- ranks and dimensions ----------------------------------------------------

    def diff_rank(self, i: int) -> int:
        """Rank of d^i; a matrix repeated from degree i-6 is ranked there."""
        if i < 0:
            return 0
        if i not in self._hh_ranks:
            if i >= 6 and self.diffs[i] is self.diffs[i - 6]:
                self._hh_ranks[i] = self.diff_rank(i - 6)
            else:
                self._hh_ranks[i] = self.diffs[i].rank()
        return self._hh_ranks[i]


def build_complex(t: AlgebraTable, f: NakayamaForm, maxdeg: int = 13,
                  window: Optional[ResolutionWindow] = None) -> CochainComplex:
    return CochainComplex(t, f, maxdeg, window)


def hh_dims(c: CochainComplex, upto: int) -> List[int]:
    """dim HH^i for i = 0..upto, by exact rank on the cochain complex."""
    if upto > c.maxdeg - 1:
        raise ValueError("upto exceeds maxdeg - 1")
    out = []
    for i in range(upto + 1):
        ker = c.spaces[i].dim - c.diff_rank(i)
        out.append(ker - c.diff_rank(i - 1))
    return out


# -- homology via the tensor complex ------------------------------------------


def _tensor_space(t: AlgebraTable, term) -> List[Tuple[int, int]]:
    basis = []
    for k, (s, tt) in enumerate(term.summands):
        basis.extend((k, m.mid) for m in t.by_ends.get((tt, s), ()))
    return basis


def _tensor_matrix(t: AlgebraTable, w: ResolutionWindow, m: int) -> ExactMatrix:
    """Induced map L (x) P^-m -> L (x) P^-(m+1-1): z at (s,t) -> sum y z x."""
    src = _tensor_space(t, w.terms[m])
    tgt = _tensor_space(t, w.terms[m - 1])
    tgt_pos = {k: r for r, k in enumerate(tgt)}
    entries = []
    d = w.diffs[m]
    mono_mul = t.mono_mul
    for col, (k, z) in enumerate(src):
        for (k2, x, y), c in d.values[k].items():
            lhs = mono_mul(y, z)
            if lhs is None:
                continue
            rhs = mono_mul(lhs[1], x)
            if rhs is None:
                continue
            entries.append((tgt_pos[(k2, rhs[1])], col, c * lhs[0] * rhs[0]))
    return ExactMatrix.from_entries(t.field, len(tgt), len(src), entries)


def homology_dims(c: CochainComplex, upto: int) -> List[int]:
    """dim HH_i for i = 0..upto, from the tensor complex over the window.

    `_tensor_matrix` reads the terms m, m-1 and the value dicts of d_m,
    which are canonical by construction: where `repeats_period` finds d_m
    equal to d_(m-6) between equal terms, the matrix and its rank are those
    of m-6, and only the others are ranked.
    """
    t, w = c.table, c.window
    if upto + 1 > w.depth:
        raise ValueError("window too shallow")
    ranks = [0]
    for m in range(1, upto + 2):
        ranks.append(ranks[m - 6] if repeats_period(w, m)
                     else _tensor_matrix(t, w, m).rank())
    dims = []
    for i in range(upto + 1):
        total = len(_tensor_space(t, w.terms[i]))
        dims.append(total - ranks[i] - ranks[i + 1])
    return dims


def commutator_quotient_dim(t: AlgebraTable) -> int:
    """dim L/[L,L], an independent cross-check of the homology degree 0.

    [L, L] is spanned by the rows [g, m] = gm - mg with g an idempotent or an
    arrow and m a basis monomial.  For paths x, y and any z,
        [xy, z] = [x, yz] + [y, zx],
    so, by induction on the length of a path p = g p' with g an arrow,
    [p, z] = [g, p'z] + [p', zg] lies in the span of the rows [g, m] and
    [p', m'] with p' shorter; paths of length 0 and 1 are the generators
    themselves.  Every basis monomial is a signed path, so these rows span
    all of [L, L].  [e_v, m] is m, -m or 0, so one row m per monomial with
    distinct ends stands for them; [a, m] is nonzero only when a ends where
    m starts or starts where m ends.
    """
    rows = []
    quiver, mono_mul = t.quiver, t.mono_mul
    for m in t.basis:
        if m.source != m.target:
            rows.append({m.mid: 1})
        # the arrows ending where m starts, then those only starting where it ends
        arrows = quiver.arrows_into[m.source] + [
            a for a in quiver.arrows_from[m.target] if a.target != m.source]
        for a in arrows:
            am = t.arrow_ids[a.index]
            ab = mono_mul(am, m.mid)
            ba = mono_mul(m.mid, am)
            row: dict = {}
            if ab is not None:
                row[ab[1]] = ab[0]
            if ba is not None:
                row[ba[1]] = row.get(ba[1], 0) - ba[0]
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return t.dim - sparse_rank(rows, t.field)


def cyclic_dims(c: CochainComplex, hh: List[int]) -> Tuple[List[int], List[int]]:
    """Cyclic homology dimensions (characteristic zero only).

    `hh` is dim HH_0..HH_upto as `homology_dims` returns it.  Returns
    (HC dims, Connes image dims B^i).  B^0 = dim HH_0 - n and
    B^i = dim HH_i - B^(i-1) by exactness of the Connes sequence; then
    HC_i = HC_i(semisimple part) + B^i.  The B^i are returned as computed:
    the certificate's `cyclic` verdict checks HC_i = 2n for even i and 0 for
    odd i, that is B^i = n and 0, and keeps the B^i as its witness.
    """
    t = c.table
    if t.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "cyclic homology dimensions are computed in characteristic 0 only")
    n = t.n
    b = [hh[0] - n]
    for i in range(1, len(hh)):
        b.append(hh[i] - b[i - 1])
    hc = [(n if i % 2 == 0 else 0) + bi for i, bi in enumerate(b)]
    return hc, b


# -- canonical cocycles ---------------------------------------------------------


class CanonicalBasis(namedtuple("CanonicalBasis", "degree labels vectors solver")):
    """Canonical cocycles of one degree and the solver over [vectors | d^(degree-1)]."""

    __slots__ = ()

    # Soundness.  (a) `canonical_cocycles` checks each canonical vector to be
    # a cocycle and `CochainComplex.__init__` checks d o d = 0 exactly, so
    # the span holds cocycles only and a successful solve certifies one.
    # (b) The canonical columns come first and are independent modulo im d
    # (the solver's rank is checked), so each is a pivot column and the
    # canonical part of any solution is unique: two solutions differ by a
    # kernel vector, whose canonical part vanishes by that independence.  So
    # the coordinates are empty exactly when `vec` is a coboundary.
    def coords(self, vec: dict) -> Optional[dict]:
        """Coordinates of the class of `vec`, or None outside the span.

        The solver's sparse solution restricted to the canonical columns, a
        {index: scalar} dict over the canonical classes; its entries on the
        columns of d^(degree-1) are dropped.
        """
        sol, k = self.solver.solve(vec), len(self.vectors)
        return None if sol is None else {j: x for j, x in sol.items() if j < k}


def canonical_cocycles(c: CochainComplex, degree: int) -> CanonicalBasis:
    """The canonical representative cocycles in V^degree, with their solver.

    Degrees 0..6 carry the fundamental families
      0: 1, x0^k, w_i          1: x0^k y        2: z_k = e_k
      3: t_k = w_k             4: x0^k gamma    5: x0^k y.gamma
      6: x0^k h
    and beyond 6 the same vectors are reused with an h-power label, the
    complex being literally six-periodic.  In every degree the family is
    verified to consist of cocycles independent modulo coboundaries.
    """
    t = c.table
    n = t.n
    if degree in c._canonical_cache:
        return c._canonical_cache[degree]

    base = None
    if degree > 6:
        m = (degree - 1) // 6
        base = canonical_cocycles(c, degree - 6 * m)
        labels = [f"{lab}*h^{m}" if m > 1 else f"{lab}*h" for lab in base.labels]
        vectors = base.vectors
    elif degree == 0:
        labels = ["1"] + [f"x0^{k}" if k > 1 else "x0" for k in range(1, n)] + \
                 [f"x{i}" for i in range(1, n + 1)]
        elems = x0_powers(t)[:n] + socle_basis(t)
        vectors = [c.diagonal_vector(0, z) for z in elems]
    elif degree == 2:
        labels = [f"z{k}" for k in range(1, n + 1)]
        vectors = [c.vector_from_terms(2, {(k, t.e_ids[k]): 1})
                   for k in range(1, n + 1)]
    elif degree == 3:
        labels = [f"t{k}" for k in range(1, n + 1)]
        vectors = [c.vector_from_terms(3, {(k, t.socle_ids[k]): 1})
                   for k in range(1, n + 1)]
    else:
        # x0^k times one fixed cocycle, as {component: value}; x0^k is a sum
        # of cycles, so x0^k h has the components {v: x0^k e_v}
        mono = t.monomial_element
        gen, comps = {
            1: ("y", {a.index: mono(t.arrow_ids[a.index]) for a in t.quiver.arrows}),
            4: ("gamma", {0: mono(t.e_ids[1])}),
            5: ("y.gamma", {1: mono(t.arrow_ids[0])}),
            6: ("h", {v: mono(t.e_ids[v]) for v in range(1, n + 1)}),
        }[degree]
        labels = [_x0_label(k, gen) for k in range(n)]
        powers = x0_powers(t)
        vectors = [c.vector_from_components(
            degree, {comp: multiply(t, powers[k], val) for comp, val in comps.items()})
            for k in range(n)]

    for lab, v in zip(labels, vectors):
        if not c.is_cocycle(degree, v):
            raise CanonicalBasisError(f"{lab} is not a cocycle in degree {degree}")
    # `span_with_coboundaries` reads only the vectors and d^(degree-1): where
    # both are the base degree's objects (d^(degree-1) is d^(base-1) exactly
    # where `CochainComplex` found the period to repeat), the matrix is the
    # base's and so is its solver
    if (base is not None and vectors is base.vectors
            and c.diffs[degree - 1] is c.diffs[base.degree - 1]):
        solver = base.solver
    else:
        solver = PreparedSolver(c.span_with_coboundaries(degree, vectors))
    if solver.rank != len(vectors) + c.diff_rank(degree - 1):
        raise CanonicalBasisError(
            f"canonical cocycles of degree {degree} ({labels}) are dependent "
            f"modulo coboundaries")
    out = c._canonical_cache[degree] = CanonicalBasis(degree, labels, vectors, solver)
    return out


def _x0_label(k: int, gen: str) -> str:
    if k == 0:
        return gen
    if k == 1:
        return f"x0*{gen}"
    return f"x0^{k}*{gen}"


def zmodule_checks(c: CochainComplex) -> dict:
    """Module structure of positive cohomology over the center.

    Socle elements annihilate every positive degree; x0 annihilates degrees
    congruent to 2 or 3 mod 6; x0^(n-1) times the cyclic generator survives
    in the other positive degrees.  Degrees 7..12 take the outcome of degree
    j-6 wherever it provably repeats (see the note below).
    """
    t = c.table
    n = t.n
    socle = socle_basis(t)
    powers = x0_powers(t)
    x0, top = powers[1], powers[n - 1]
    degrees = range(1, min(c.maxdeg - 1, 12) + 1)

    # Soundness of checking once per period.  The checks of degree j read
    # only j mod 6, the fixed central elements (the socle, x0, x0^(n-1)), the
    # canonical vectors of degree j, its class solver (through `coords`) and
    # the basis of V^j (through `scale_vector`, which reads the basis and the
    # positions built from it).  Where degree j shares the vectors and the
    # solver objects of degree j-6 and the two spaces have equal bases, every
    # product and every solve is the same, so the same products fail, by
    # position; only the labels differ, and each failing degree writes its
    # own lines with its own labels.  Any other degree is checked on its own.
    def outcome(j):
        """(socle misses as (label, socle element) positions, x0 misses as
        label positions, whether the x0^(n-1) product is a coboundary)."""
        basis = canonical_cocycles(c, j)

        def kills(z, v):
            # the class of z v is zero: no coordinates (None outside the span)
            return basis.coords(c.scale_vector(j, z, v)) == {}

        socle_misses = [(k, i) for k, v in enumerate(basis.vectors)
                        for i, w in enumerate(socle) if not kills(w, v)]
        if j % 6 in (2, 3):
            return socle_misses, [k for k, v in enumerate(basis.vectors)
                                  if not kills(x0, v)], False
        return socle_misses, [], kills(top, basis.vectors[0])

    found = {}
    for j in degrees:
        if j > 6:
            basis, prior = canonical_cocycles(c, j), canonical_cocycles(c, j - 6)
            if (basis.vectors is prior.vectors and basis.solver is prior.solver
                    and c.spaces[j].basis == c.spaces[j - 6].basis):
                found[j] = found[j - 6]
                continue
        found[j] = outcome(j)

    labels = {j: canonical_cocycles(c, j).labels for j in degrees}
    failures = [f"x{i + 1}*{labels[j][k]} not a coboundary in degree {j}"
                for j in degrees for k, i in found[j][0]]
    failures += [f"x0*{labels[j][k]} not a coboundary in degree {j}"
                 for j in degrees for k in found[j][1]]
    failures += [f"x0^{n - 1} * generator is a coboundary in degree {j}"
                 for j in degrees if found[j][2]]
    checks = {"socle_kills": not any(found[j][0] for j in degrees),
              "x0_kills_2_3": not any(found[j][1] for j in degrees),
              "x0_power_survives": not any(found[j][2] for j in degrees)}
    # sound: each check that is False wrote a failure line per offending degree
    return {**checks, "failures": failures, "ok": not failures}
