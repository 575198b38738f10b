"""Yoneda products by chain-map lifting along the bimodule resolution.

A cocycle in V^j is a bimodule map P^-j -> L; lifting it produces a chain
map segment f_0..f_s with u o f_0 the cocycle and d o f_k = f_{k-1} o d.
Each f_k is found by solving a linear system on the generators.  The
resolution is graded with degree-0 differentials once each term's
generators are assigned their internal degree, so a homogeneous cocycle
lifts within a single graded piece of each Hom space; the solver exploits
this and additionally splits by source summand, which keeps every system
small.  A system does not depend on the cocycle, so each distinct one is
eliminated once per engine and reused for every later right-hand side.
Deeper steps share systems too: where the engine checks d_k = tau(d_(k-3))
on the same terms, the step-k system is the step-(k-3) system conjugated
by the signs (-1)^deg of the right tensor factors, so each twist class of
steps (k, k+3, k+6, ...) is eliminated once, at its base step in 1..3.
The lifts repeat with the same twisted period: where steps k and
degree+k both join the classes of k-3 and degree+k-3, and f_(k-1) is
checked to equal eps tau(f_(k-4)) for eps = +1 or -1, step k is appended as
eps tau(f_(k-3)) with no composition and no solve; every other step is
solved.
Products of classes are compositions of a cochain with a lift of
the other factor, identified afterwards by the class solver that the
canonical basis of the product degree holds (`CanonicalBasis.coords`);
both chain-map kernels (`resolution.compose` and `cup_vec`) sum plain
numbers and coerce each entry into the field once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraTable, elem_add
from .cochain import CochainComplex, PARALLELS, canonical_cocycles
from .exactla import ExactMatrix, FieldSpec, PreparedSolver, det
from .resolution import BimoduleMap, ResolutionWindow, compose, expand, tau_twist


class NotACocycleError(RuntimeError):
    pass


class LiftFailedError(RuntimeError):
    """Inconsistent lifting system; impossible over a certified-exact window."""


class IdentificationError(RuntimeError):
    """A cocycle failed to decompose over the canonical basis plus coboundaries."""


class CMatrixMismatchError(RuntimeError):
    pass


@dataclass
class CohomologyClass:
    degree: int
    coords: tuple
    labels: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def nonzero_items(self):
        return [(lab, c) for lab, c in zip(self.labels, self.coords) if c != 0]

    def __str__(self):
        items = self.nonzero_items()
        if not items:
            return "0"
        return " + ".join(f"{c}*{lab}" if c != 1 else lab for lab, c in items)


@dataclass
class ChainMapSegment:
    base_degree: int
    maps: List[BimoduleMap]   # maps[k]: P^-(base_degree+k) -> P^-k


@dataclass(frozen=True)
class _LiftSystem:
    """A graded lifting system: unknown value terms, equation keys, solver."""

    solver: PreparedSolver
    unknowns: list    # (target summand, x, y) per column
    eq_keys: list     # monomial ids (step 0) or (summand, x, y) per row
    eq_pos: dict      # equation key -> row


class YonedaEngine:
    """Caches lifts of cocycles and computes products in canonical coordinates."""

    def __init__(self, cx: CochainComplex):
        self.cx = cx
        self.table: AlgebraTable = cx.table
        self.window: ResolutionWindow = cx.window
        self._lift_cache: Dict[tuple, ChainMapSegment] = {}
        self._lift_systems: Dict[tuple, _LiftSystem] = {}
        self._twist = _twist_classes(self.window)
        self._gens: Optional[List[Tuple[str, int, list]]] = None
        # lift steps solved and steps appended as twists of an earlier step
        self.steps_solved = 0
        self.steps_twisted = 0

    def generators(self) -> List[Tuple[str, int, list]]:
        """Named cocycle representatives of the ring generators.

        Degree 0 generators are the central elements; the positive-degree
        ones are y, z_1..z_n, t_1..t_n, gamma and h.
        """
        if self._gens is None:
            n = self.table.n
            v = {i: canonical_cocycles(self.cx, i).vectors for i in (1, 2, 3, 4, 6)}
            gens = [("y", 1, v[1][0])]
            gens += [(f"z{k}", 2, v[2][k - 1]) for k in range(1, n + 1)]
            gens += [(f"t{k}", 3, v[3][k - 1]) for k in range(1, n + 1)]
            gens += [("gamma", 4, v[4][0])]
            gens += [("h", 6, v[6][0])]
            self._gens = gens
        return self._gens

    def generator_vector(self, name: str) -> Tuple[int, list]:
        for gname, deg, vec in self.generators():
            if gname == name:
                return deg, vec
        raise KeyError(name)

    def work(self) -> Dict[str, int]:
        """Lifting work so far: steps solved, steps twisted, systems eliminated."""
        return {"lift_steps_solved": self.steps_solved,
                "lift_steps_twisted": self.steps_twisted,
                "lifting_systems": len(self._lift_systems)}

    # -- lifting ------------------------------------------------------------

    def lift(self, vec: list, degree: int, steps: int) -> ChainMapSegment:
        """Chain-map segment over the given cocycle, solving step by step."""
        key = (degree, tuple(vec))
        seg = self._lift_cache.get(key)
        if seg is None:
            # a key enters the cache only after its vector passed this check,
            # so a cache hit is a cocycle already
            if not self.cx.is_cocycle(degree, vec):
                raise NotACocycleError(f"input of degree {degree} is not a cocycle")
            seg = ChainMapSegment(degree, [])
            self._lift_cache[key] = seg
        self._extend(seg, vec, steps)
        return seg

    def _extend(self, seg: ChainMapSegment, vec: list, steps: int):
        w = self.window
        degree = seg.base_degree
        if degree + steps > w.depth:
            raise ValueError("window too shallow for the requested lift")
        while len(seg.maps) <= steps:
            k = len(seg.maps)
            twisted = self._twisted_step(seg, k) if k >= 4 else None
            if twisted is not None:
                seg.maps.append(twisted)
                self.steps_twisted += 1
                continue
            if k == 0:
                rhs_by_summand = self._cochain_rhs(degree, vec)
            else:
                rhs_by_summand = compose(seg.maps[k - 1], w.diffs[degree + k]).values
            seg.maps.append(self._solve_step(degree, k, rhs_by_summand))
            self.steps_solved += 1

    # Soundness of the period shortcut.  Suppose `_twist_classes` put step k
    # in the class of k-3 and step degree+k in the class of degree+k-3: so
    # d_k = tau(d_(k-3)) and d_(degree+k) = tau(d_(degree+k-3)), on equal
    # terms.  Suppose also that f_(k-1) = eps tau(f_(k-4)) holds exactly.
    # tau multiplies the right factor of each value term by (-1)^its degree,
    # and degrees add under composition, so tau(f o g) = tau(f) o tau(g).
    # The step-k right-hand side b_k = f_(k-1) o d_(degree+k) is then
    # eps tau(f_(k-4) o d_(degree+k-3)) = eps E b_(k-3), with E the sign
    # diagonal of the note at `_lift_system`; tau keeps value degrees, so
    # b_k splits into the same graded blocks as b_(k-3).  By that note, step
    # j of the class is solved as f_j = E^(odd_j) S(E^(odd_j) b_j), S the
    # canonical solution of the shared base system, and odd_k = 1 - odd_(k-3).
    # S is linear in b (pivot entries T b, free entries 0), so
    #   f_k = eps E^(odd_k) S(E^(odd_k) E b_(k-3))
    #       = eps E E^(odd_(k-3)) S(E^(odd_(k-3)) b_(k-3)) = eps tau(f_(k-3)),
    # and, normalized, that is the map `_solve_step` would return, byte for
    # byte (by induction every earlier step is the solved one too).  Where a
    # check fails, the step is solved.  Every map `_extend` appends is
    # normalized, and eps tau of a normalized map, normalized, keeps its keys
    # in their order and only negates some coefficients.  So the check
    # f_(k-1) = eps tau(f_(k-4)) is one pass over paired terms (`_twist_sign`),
    # and eps tau(f_(k-3)) is built by one pass too (`_signed_twist`).
    def _twisted_step(self, seg: ChainMapSegment, k: int) -> Optional[BimoduleMap]:
        """eps tau(f_(k-3)) where the period argument above applies, else None."""
        tw, j = self._twist, seg.base_degree + k
        if tw[k][0] != tw[k - 3][0] or tw[j][0] != tw[j - 3][0]:
            return None
        eps = _twist_sign(seg.maps[k - 1], seg.maps[k - 4])
        return None if eps is None else _signed_twist(seg.maps[k - 3], eps)

    def _cochain_rhs(self, degree: int, vec: list):
        """Cochain components reshaped as value-term lists per source summand."""
        cx, t = self.cx, self.table
        term = self.window.terms[degree]
        comps = cx.component_values(degree, vec)
        values = []
        for k, (s, tt) in enumerate(term.summands):
            comp_key = t.quiver.arrows[k].index if cx.spaces[degree].kind == PARALLELS else k + 1
            elem = comps.get(comp_key, {})
            values.append([(0, c, mid, None) for mid, c in sorted(elem.items())])
        return values

    def _solve_step(self, degree: int, k: int, rhs_by_summand) -> BimoduleMap:
        """Solve d_k o f = rhs (k >= 1) or u o f = cochain (k = 0)."""
        w, t = self.window, self.table
        src_term = w.terms[degree + k]
        tgt_term = w.terms[k]
        values: List[list] = []
        for ks, (s, tt) in enumerate(src_term.summands):
            rhs_terms = rhs_by_summand[ks]
            # group by value degree; a graded cocycle lifts within one piece,
            # a mixed one is handled additively
            parts: Dict[int, list] = {}
            for term in rhs_terms:
                if k == 0:
                    _, c, mid, _ = term
                    dv = t.basis[mid].degree
                else:
                    _, c, x, y = term
                    dv = t.basis[x].degree + t.basis[y].degree
                parts.setdefault(dv, []).append(term)
            out_terms: list = []
            degrees = sorted(parts) if parts else []
            for dv in degrees:
                out_terms.extend(
                    self._solve_block(degree, k, ks, s, tt, dv, parts[dv]))
            values.append(out_terms)
        return BimoduleMap(t, src_term, tgt_term, values).normalized()

    def _solve_block(self, degree, k, ks, s, tt, rhs_value_degree, rhs_terms):
        """One graded linear solve for the values at a single source summand."""
        t, F = self.table, self.table.field
        base, odd = self._twist[k]
        system = self._lift_system(base, s, tt, rhs_value_degree)
        # the terms come from the cochain or from `compose`: one per key,
        # each a nonzero field scalar
        if k == 0:
            rhs_vec = {mid: c for _, c, mid, _ in rhs_terms}
        else:
            rhs_vec = {(kn, x, y): c for kn, c, x, y in rhs_terms}
        if any(key not in system.eq_pos for key in rhs_vec):
            raise LiftFailedError("right-hand side outside the graded piece")
        b = [rhs_vec.get(key, F.zero) for key in system.eq_keys]
        if odd:
            b = _sign_flip(t, b, system.eq_keys)
        sol = system.solver.solve(b)
        if sol is None:
            raise LiftFailedError(
                f"lifting system inconsistent at step {k}, summand {ks}")
        if odd:
            sol = _sign_flip(t, sol, system.unknowns)
        return [(kt, c, x, y) for (kt, x, y), c in zip(system.unknowns, sol) if c != 0]

    # Soundness of the cache.  The system matrix, its unknowns and its
    # equations are read off (step, s, tt, rhs value degree) and the window
    # alone, never off the cocycle, so that key determines the matrix, and
    # the prepared solution of every later right-hand side is
    # echelon-canonical: identical to what `ExactMatrix.solve(b)` returns for
    # a freshly assembled matrix.
    #
    # Steps of one twist class share a key.  `_twist_classes` maps k >= 4 to
    # the class of k-3 only where it checks, exactly, that d_k equals
    # tau(d_(k-3)) term for term, that P_k, P_(k-1) equal P_(k-3), P_(k-4),
    # and that the generator-degree steps g(k)-g(k-1) and g(k-3)-g(k-4)
    # agree.  Then step k has the same unknowns and equations as step k-3,
    # and since tau multiplies the right factor y' of each value term by
    # (-1)^deg y', the entry of M_k at row (k2, x x', y' y) and column
    # (kt, x, y) is (-1)^(deg y' y) M_(k-3) (-1)^deg y: M_k = E M_(k-3) E
    # with E = diag((-1)^deg(right factor)) on rows and on columns, and
    # E^2 = 1 leaves only the parity of the number of twists.  So M_k x = b
    # is solved as M_base x' = E b, x = E x'.  E is invertible and diagonal,
    # so column j of M_k depends on the columns before it exactly when
    # column j of M_base does: both have the same pivot columns, E x' is
    # zero at the free ones, and x is the echelon-canonical solution of the
    # step-k system, byte for byte.  A step whose check fails keeps its own
    # key.  The same conjugation lets `_extend` skip a step's solve entirely
    # where the lift itself repeats; see the note at `_twisted_step`.
    def _lift_system(self, k, s, tt, rhs_value_degree) -> _LiftSystem:
        """The prepared graded lifting system for one (step, summand, degree)."""
        key = (k, s, tt, rhs_value_degree)
        system = self._lift_systems.get(key)
        if system is None:
            mat, unknowns, eq_keys = self._assemble(k, s, tt, rhs_value_degree)
            system = _LiftSystem(PreparedSolver(mat), unknowns, eq_keys,
                                 {key: r for r, key in enumerate(eq_keys)})
            self._lift_systems[key] = system
        return system

    def _assemble(self, k, s, tt, rhs_value_degree):
        """The matrix, unknowns and equation keys of one step's system."""
        w, t, F = self.window, self.table, self.table.field
        # the differential raises value degree by g(k) - g(k-1), so the
        # unknown lives that much below the right-hand side
        if k == 0:
            unknown_degree = rhs_value_degree
            mid = t.by_ijd.get((s, tt, rhs_value_degree))
            eq_keys = [] if mid is None else [mid]
        else:
            unknown_degree = rhs_value_degree - (w.gen_degrees[k] - w.gen_degrees[k - 1])
            eq_keys = _graded_triples(t, w.terms[k - 1], s, tt, rhs_value_degree)
        unknowns = _graded_triples(t, w.terms[k], s, tt, unknown_degree)
        eq_pos = {key: r for r, key in enumerate(eq_keys)}
        mat = ExactMatrix.from_entries(
            F, len(eq_keys), len(unknowns),
            ((eq_pos[key], col, c) for col, (kt, x, y) in enumerate(unknowns)
             for key, c in self._composed_column(k, kt, x, y)))
        return mat, unknowns, eq_keys

    def _composed_column(self, k, kt, x, y):
        """Image of the elementary hom with value x (x) y at summand kt."""
        if k == 0:
            hit = self.table.mono_mul(x, y)
            return [] if hit is None else [(hit[1], hit[0])]
        return expand(self.window.diffs[k], kt, x, y).items()

    def verify_segment(self, seg: ChainMapSegment, vec: list) -> bool:
        """Symbolic check of the chain-map identities for a given segment."""
        w, t, cx = self.window, self.table, self.cx
        degree = seg.base_degree
        rhs0 = self._cochain_rhs(degree, vec)
        for ks, terms in enumerate(seg.maps[0].values):
            acc: dict = {}
            for kt, c, x, y in terms:
                hit = t.mono_mul(x, y)
                if hit is not None:
                    acc[hit[1]] = acc.get(hit[1], 0) + c * hit[0]
            want = {mid: c for _, c, mid, _ in rhs0[ks]}
            got = {m: t.field(c) for m, c in acc.items() if c != 0}
            want = {m: t.field(c) for m, c in want.items() if t.field(c) != 0}
            if got != want:
                return False
        for k in range(1, len(seg.maps)):
            lhs = compose(w.diffs[k], seg.maps[k])
            rhs = compose(seg.maps[k - 1], w.diffs[degree + k])
            if not lhs.equals(rhs):
                return False
        return True

    # -- products -------------------------------------------------------------

    def central_from_v0(self, vec: list) -> dict:
        comps = self.cx.component_values(0, vec)
        out: dict = {}
        for comp, elem in comps.items():
            out = elem_add(self.table, out, elem)
        return out

    def cup_vec(self, xvec: list, dx: int, yvec: list, dy: int) -> list:
        """Cochain representative of the product of two cocycles."""
        cx, t = self.cx, self.table
        if dx + dy > cx.maxdeg - 1:
            raise ValueError("product degree exceeds the window")
        if dx == 0:
            return cx.scale_vector(dy, self.central_from_v0(xvec), yvec)
        if dy == 0:
            return cx.scale_vector(dx, self.central_from_v0(yvec), xvec)
        seg = self.lift(yvec, dy, dx)
        f = seg.maps[dx]
        xcomps = cx.component_values(dx, xvec)
        src_kind = cx.spaces[dx].kind
        result: Dict[int, dict] = {}
        out_term = self.window.terms[dx + dy]
        out_kind = cx.spaces[dx + dy].kind
        product, F = t.product, t.field
        for ks in range(len(out_term.summands)):
            # x.val.y summed as plain numbers, coerced once per monomial
            acc: dict = {}
            for kt, c, x, y in f.values[ks]:
                comp_key = (t.quiver.arrows[kt].index if src_kind == PARALLELS
                            else kt + 1)
                val = xcomps.get(comp_key)
                if not val:
                    continue
                left = product[x]
                for m, v in val.items():
                    hit = left.get(m)
                    if hit is None:
                        continue
                    hit2 = product[hit[1]].get(y)
                    if hit2 is not None:
                        acc[hit2[1]] = acc.get(hit2[1], 0) + c * v * hit[0] * hit2[0]
            elem = {m: fs for m, s in acc.items() if (fs := F(s)) != 0}
            if elem:
                out_key = (t.quiver.arrows[ks].index if out_kind == PARALLELS
                           else ks + 1)
                result[out_key] = elem
        return cx.vector_from_components(dx + dy, result)

    def identify(self, vec: list, degree: int) -> CohomologyClass:
        """Coordinates over the canonical basis, modulo coboundaries.

        `coords` succeeds only on cocycles, so `is_cocycle` only names the error.
        """
        basis = canonical_cocycles(self.cx, degree)
        coords = basis.coords(vec)
        if coords is None:
            if not self.cx.is_cocycle(degree, vec):
                raise NotACocycleError(
                    f"identify: input of degree {degree} is not a cocycle")
            raise IdentificationError(
                f"cocycle of degree {degree} not in the canonical span")
        return CohomologyClass(degree, coords, tuple(basis.labels))

    def cup(self, xvec: list, dx: int, yvec: list, dy: int) -> CohomologyClass:
        return self.identify(self.cup_vec(xvec, dx, yvec, dy), dx + dy)

    def product_table(self) -> Dict[Tuple[str, str], CohomologyClass]:
        """All ordered products of the positive-degree ring generators."""
        out = {}
        gens = self.generators()
        for name1, d1, v1 in gens:
            for name2, d2, v2 in gens:
                if d1 + d2 > self.cx.maxdeg - 1:
                    continue
                out[(name1, name2)] = self.cup(v1, d1, v2, d2)
        return out


def _twist_classes(w: ResolutionWindow) -> List[Tuple[int, bool]]:
    """(base step, odd number of twists) for every step 0..depth.

    Step k >= 4 joins the class of k-3, one more twist, where d_k equals
    tau(d_(k-3)) on the same source and target terms and with the same
    generator-degree step; every other step is its own base.  See the
    soundness note at `YonedaEngine._lift_system`.
    """
    g = w.gen_degrees
    classes = [(k, False) for k in range(min(w.depth, 3) + 1)]
    for k in range(4, w.depth + 1):
        if (w.terms[k] == w.terms[k - 3] and w.terms[k - 1] == w.terms[k - 4]
                and g[k] - g[k - 1] == g[k - 3] - g[k - 4]
                and w.diffs[k].equals(tau_twist(w.diffs[k - 3]))):
            base, odd = classes[k - 3]
            classes.append((base, not odd))
        else:
            classes.append((k, False))
    return classes


def _twist_sign(later: BimoduleMap, earlier: BimoduleMap) -> Optional[int]:
    """The eps in {1, -1} with later = eps tau(earlier), both normalized, or None.

    One pass over the paired terms: the keys must agree in order, and each
    coefficient of `later` must be that of `earlier` times eps (-1)^deg y.
    Normalized coefficients are nonzero and the characteristic is odd, so a
    term that matches fixes eps; maps without terms take eps = 1.
    """
    if len(later.values) != len(earlier.values):
        return None
    basis, neg = earlier.table.basis, earlier.table.field.neg
    eps = None
    for new, old in zip(later.values, earlier.values):
        if len(new) != len(old):
            return None
        for (k1, c1, x1, y1), (k0, c0, x0, y0) in zip(new, old):
            if k1 != k0 or x1 != x0 or y1 != y0:
                return None
            sign = -1 if basis[y0].degree % 2 else 1
            if c1 == c0:
                s = sign
            elif c1 == neg(c0):
                s = -sign
            else:
                return None
            if eps is None:
                eps = s
            elif s != eps:
                return None
    return 1 if eps is None else eps


def _signed_twist(m: BimoduleMap, eps: int) -> BimoduleMap:
    """eps tau(m), normalized, for a normalized m.

    tau only multiplies each coefficient by (-1)^deg y, so eps tau(m) has the
    keys of m in their order, each coefficient kept or negated: no key merges
    or cancels, and that is already the normalized map.
    """
    basis, neg = m.table.basis, m.table.field.neg
    values = [[(k, c if (basis[y].degree % 2 == 0) == (eps == 1) else neg(c), x, y)
               for k, c, x, y in terms] for terms in m.values]
    return BimoduleMap(m.table, m.source, m.target, values)


def _sign_flip(t: AlgebraTable, values: list, keys: list) -> list:
    """E applied to a vector: each value times (-1)^deg of its key's right factor."""
    return [t.field.neg(c) if t.basis[y].degree % 2 else c
            for c, (_, _, y) in zip(values, keys)]


def _graded_triples(t: AlgebraTable, term, s: int, tt: int, degree: int) -> list:
    """Keys (summand, x, y) of the value terms x (x) y in `term`, of total
    degree `degree`, that a map from the elementary bimodule at (s, tt) takes.

    Each graded piece e_v L_d e_tt is at most one-dimensional, so x fixes y.
    """
    return [(k, x.mid, y) for k, (u, v) in enumerate(term.summands)
            for x in t.by_ends.get((s, u), ())
            if (y := t.by_ijd.get((v, tt, degree - x.degree))) is not None]


@dataclass
class CMatrix:
    entries: List[List[int]]
    rank: int                  # over the engine's field
    det: int
    adjacency_identity: bool

    def serialize(self):
        return {"entries": self.entries, "rank": self.rank, "det": self.det,
                "det_sign": 0 if self.det == 0 else (1 if self.det > 0 else -1),
                "adjacency_identity": self.adjacency_identity}


def combinatorial_c_matrix(t: AlgebraTable) -> List[List[int]]:
    """Entries sum (-1)^deg(x) deg(x) over the basis monomials of e_j B e_k."""
    n = t.n
    C = [[0] * n for _ in range(n)]
    for m in t.basis:
        C[m.source - 1][m.target - 1] += (-1) ** m.degree * m.degree
    return C


def closed_form_c_matrix(n: int) -> List[List[int]]:
    C = [[0] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            val = (-1) ** (k - j + 1) * (2 * j - 1) * (n - k + 1)
            C[j - 1][k - 1] = val
            C[k - 1][j - 1] = val
    return C


def adjacency_matrix(n: int) -> List[List[int]]:
    D = [[0] * n for _ in range(n)]
    D[0][0] = 1
    for i in range(n - 1):
        D[i][i + 1] = D[i + 1][i] = 1
    return D


def c_matrix(t: AlgebraTable, engine: Optional[YonedaEngine] = None) -> CMatrix:
    """The multiplication-by-y matrix, computed three independent ways.

    The combinatorial basis sum, the closed form, and (when an engine is
    supplied) the cup products y*z_k in the degree-3 canonical basis must
    agree entry for entry.
    """
    n = t.n
    comb = combinatorial_c_matrix(t)
    closed = closed_form_c_matrix(n)
    if comb != closed:
        raise CMatrixMismatchError(
            f"combinatorial and closed-form entries disagree: {comb} vs {closed}")
    F = t.field
    if engine is not None:
        ydeg, yvec = engine.generator_vector("y")
        for k in range(1, n + 1):
            zdeg, zvec = engine.generator_vector(f"z{k}")
            cls = engine.cup(yvec, ydeg, zvec, zdeg)
            for j in range(1, n + 1):
                if cls.coords[j - 1] != F(comb[j - 1][k - 1]):
                    raise CMatrixMismatchError(
                        f"cup product coordinate ({j},{k}) = {cls.coords[j - 1]}, "
                        f"expected {comb[j - 1][k - 1]}")
    rank = ExactMatrix(F, comb).rank()
    comb_det = int(det(comb, FieldSpec(0)))
    D = adjacency_matrix(n)
    ident = all(
        -sum(comb[i][k] * (2 * (k == j) + D[k][j]) for k in range(n))
        == (2 * n + 1) * (i == j)
        for i in range(n) for j in range(n))
    return CMatrix(comb, rank, comb_det, ident)


# -- h-periodicity checks ------------------------------------------------------


@dataclass
class StableReport:
    h_bijective: Dict[int, bool]
    degree0_kernel_is_socle: bool
    failures: List[str]

    @property
    def ok(self):
        return all(self.h_bijective.values()) and self.degree0_kernel_is_socle

    def serialize(self):
        # written only when non-empty, so a passing body keeps its bytes
        doc = {"h_bijective": {str(k): v for k, v in self.h_bijective.items()},
               "degree0_kernel_is_socle": self.degree0_kernel_is_socle,
               "ok": self.ok}
        if self.failures:
            doc["failures"] = self.failures
        return doc


def stable_structure_check(engine: YonedaEngine) -> StableReport:
    """Multiplication by h: bijective on degrees 1..6, kernel Soc on degree 0."""
    t, F = engine.table, engine.table.field
    n = t.n
    hdeg, hvec = engine.generator_vector("h")
    failures: List[str] = []
    bij: Dict[int, bool] = {}
    for i in range(1, 7):
        basis = canonical_cocycles(engine.cx, i)
        cols = []
        for vec in basis.vectors:
            cls = engine.cup(vec, i, hvec, hdeg)
            cols.append(list(cls.coords))
        rank = ExactMatrix.from_columns(F, cols).rank()
        bij[i] = rank == len(basis.vectors)
        if not bij[i]:
            failures.append(f"h-multiplication drops rank in degree {i}")
    basis0 = canonical_cocycles(engine.cx, 0)
    cols = []
    for vec in basis0.vectors:
        cls = engine.cup(vec, 0, hvec, hdeg)
        cols.append(list(cls.coords))
    mat = ExactMatrix.from_columns(F, cols)
    kernel = mat.kernel_basis()
    # the kernel must be exactly the span of the socle classes x_1..x_n
    socle_cols = []
    for i in range(1, n + 1):
        col = [F.zero] * len(basis0.labels)
        col[basis0.labels.index(f"x{i}")] = F.one
        socle_cols.append(col)
    ok = len(kernel) == n
    if ok:
        span = ExactMatrix.from_columns(F, socle_cols)
        ok = all(span.solve(v) is not None for v in kernel)
    if not ok:
        failures.append("degree-0 kernel of h-multiplication is not the socle span")
    return StableReport(bij, ok, failures)
