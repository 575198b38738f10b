"""Yoneda products by chain-map lifting along the bimodule resolution.

A cocycle in V^j is a bimodule map P^-j -> L; lifting it produces a chain
map segment f_0..f_s with u o f_0 the cocycle and d o f_k = f_{k-1} o d.
The resolution is graded with degree-0 differentials once each term's
generators are assigned their internal degree, so a homogeneous cocycle
lifts within a single graded piece of each Hom space.  f_0 is read off
that grading (`_lift_cochain`); each later f_k solves a linear system on
the generators, split by graded piece and source summand, which keeps
every system small.  A cocycle is lifted once and whole, through step
maxdeg - 1 - degree, and its segment is cached only then.  `lift_many` lifts
several cocycles together, step by step, and each step assembles every
system A that its right-hand sides b_j meet and eliminates [A | b_1 ... b_m] once
(`exactla.solve_augmented`); no system is kept past its elimination.  The
first product that needs a lift lifts every ring generator in one such
batch; every product the certificate takes multiplies by a generator, so
the later ones read cached segments.  Cochains are the sparse
{position: scalar} dicts of `cochain`, and the cache keys each on its degree
and its sorted items, so a vector built in two insertion orders is lifted
once.
The lifts repeat with the twisted period of the resolution: where the engine
checks d_k = tau(d_(k-3)) and d_(degree+k) = tau(d_(degree+k-3)) on the same
terms, and f_(k-1) = eps tau(f_(k-4)) for eps = +1 or -1, step k is appended
as eps tau(f_(k-3)) with no composition and no solve; every other step is
solved.  The sign is compared out (`_twist_sign`) once per run of twisted
steps, after a solved step; each twisted step records its eps, which the
next step reads.  `Lifter` does all of this along one window over the field
of its table; the engine is the lifter of its own window and field.
The generator lifts are built once per rule and window depth in a process,
over the integers: the first engine that multiplies lifts them over Q, its
own window if its field is Q and else a Q window built from the integral
tables, reading the engine's own cochain spaces, and leaves them in a
process-wide slot (`_INTEGRAL_LIFTS`) that holds one such lift at a time.
An engine of any field reads those segments as they are, wherever exact
checks show that they reduce to a lift in its field, and lifts in its own
field elsewhere; the segments of one n therefore serve all of its fields.
Products of classes are compositions of a cochain with a lift of
the other factor, identified afterwards by the class solver that the
canonical basis of the product degree holds (`CanonicalBasis.coords`).
`cup_vecs` takes several left factors x of one degree with one right
factor y: they read one lift step of y, and the products not held already
are pulled back along it together, in one walk (`cup_vec` is the batch of
one).  A degree-0 factor is central and acts through
`CochainComplex.scale_vector`.
A class keeps the sparse {index of a canonical class: scalar} coordinates
that solver gives, and the h-periodicity check and the spanning audit take
them as matrix columns as they are (`ExactMatrix.from_columns`).
The product table, the relation check, the spanning audit, the h-check and
the C matrix ask for many of the same products and classes, so the engine
keeps each product it evaluates, keyed by its two operands, and each class
it identifies, keyed by its cocycle, in the key form of the lift cache, and
answers a repeated call from them (see the note at `cup_vecs`).  Within one
batch the lifting systems read each graded piece of a term once
(`_graded`).
Every exact kernel on the way sums plain numbers and coerces each entry
into the field once: `resolution.expand`, read by `compose`, which gives
the step right-hand sides, and the cochain pull-back
`CochainComplex.pullback`, which hands `cup_vecs` each product x o f as a
canonical cochain.  The lifting systems stay plain sums until `_reduce`
coerces them (see the note at `_assemble`).  A solved step is built from
the field-canonical values of its solutions as they are.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from typing import Dict, List, Optional, Tuple

from .algebra import QQ, AlgebraTable, _integral_tables
from .cochain import CochainComplex, canonical_cocycles
from .exactla import ExactMatrix, FieldSpec, det, solve_augmented
from .nakayama import associated_form
from .oracle import _rule_key
from .resolution import (BimoduleMap, ResolutionWindow, build_resolution, compose,
                         tau_twist)


class NotACocycleError(RuntimeError):
    pass


class LiftFailedError(RuntimeError):
    """Inconsistent lifting system; impossible over a certified-exact window."""


class IdentificationError(RuntimeError):
    """A cocycle failed to decompose over the canonical basis plus coboundaries."""


class CohomologyClass(namedtuple("CohomologyClass", "degree coords labels")):
    """A class by its `coords`, {index of a canonical class: nonzero scalar},
    over the canonical `labels` of its degree.  Equal by value; a dict of
    coordinates leaves it unhashable."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.coords

    def nonzero_items(self):
        return [(self.labels[j], c) for j, c in sorted(self.coords.items())]

    def __str__(self):
        items = self.nonzero_items()
        if not items:
            return "0"
        return " + ".join(f"{c}*{lab}" if c != 1 else lab for lab, c in items)


class ChainMapSegment(namedtuple("ChainMapSegment", "base_degree maps signs")):
    """The lift of a cocycle: `maps[k]` is P^-(base_degree+k) -> P^-k, and
    `signs` maps step k -> eps wherever maps[k] was appended as
    eps tau(maps[k-3])."""

    __slots__ = ()

    def __new__(cls, base_degree: int, maps: List[BimoduleMap],
                signs: Optional[Dict[int, int]] = None):
        return super().__new__(cls, base_degree, maps, {} if signs is None else signs)


# The ring generators' lifts over Q of the rule and window depth last
# lifted, {(`_rule_key`, maxdeg): IntegralLifts}, one entry at most; it is
# emptied before a lift for another key starts.
#
# Soundness of reading the integral lifts.  An engine over F_p takes its
# generator segments from here only where three checks pass, exactly:
#   (a) every differential of its window equals the lifts' Q differential
#       coerced into F_p, term for term, between equal terms;
#   (b) each of its generator cocycles, its items taken as they are (ints
#       0..p-1), is a key that was lifted over Q;
#   (c) p divides no denominator of any lifted value.
# Anywhere else it lifts in its own field (`lift_many`).  Every value then
# lies in Z_(p), the rationals with denominators prime to p, and reduction
# Z_(p) -> F_p is a ring map.  A Q lift satisfies u o f_0 = phi and
# d_k o f_k = f_(k-1) o d_(degree+k), where every step was solved
# consistently or appended as a twist by the note at `_twisted_step`;
# reducing both sides, with (a) for the differentials and (b) for phi, makes
# f mod p a chain map over the F_p cocycle along the F_p window, which
# `certify_exact` certifies a resolution.  No reduced copy is made:
# `CochainComplex.pullback` sums plain numbers and coerces each sum once, so
# x o f over F_p is x o (f mod p).  An own-field lift f' is a chain map over
# the same cocycle, so f - f' lifts zero and, by the comparison theorem
# (Weibel, Thm 2.2.6), f - f' = d h + h d for some h; then, x being a
# cocycle, x o (f - f') = (x o h) o d is a coboundary.  So every product has
# the class that the own-field lift gives it, and every class, relation and
# audit rank of the body is that lift's: the body keeps its bytes.  A Q
# engine reads the lifts under the same checks, where (c) is empty.
_INTEGRAL_LIFTS: dict = {}


class IntegralLifts:
    """Generator segments lifted over Q along `window`, keyed as the lift
    cache keys their cocycles.  Shared by every engine that reads them:
    read, never change."""

    __slots__ = ("window", "segments", "_scale")

    def __init__(self, window: ResolutionWindow, segments: Dict[tuple, ChainMapSegment]):
        self.window = window
        self.segments = segments
        self._scale: Optional[int] = None

    def scale(self) -> int:
        """The lcm of the denominators of every lifted value, walked once."""
        if self._scale is None:
            scale = 1
            for seg in self.segments.values():
                for f in seg.maps:
                    for terms in f.values:
                        for c in terms.values():
                            if type(c) is not int:
                                scale = lcm(scale, c.denominator)
            self._scale = scale
        return self._scale

    def reducible_to(self, window: ResolutionWindow, keys: List[tuple]) -> bool:
        """Checks (a)-(c) of the note above for an engine over `window`
        whose generator cocycles have the cache keys `keys`."""
        F, ours = window.table.field, self.window
        if not all(key in self.segments for key in keys):
            return False
        if window is not ours and not (
                window.depth == ours.depth and window.terms == ours.terms
                and all(d.source == q.source and d.target == q.target
                        and d.values == [{key: fc for key, c in terms.items() if (fc := F(c))}
                                         for terms in q.values]
                        for d, q in zip(window.diffs[1:], ours.diffs[1:]))):
            return False
        p = F.characteristic
        return p == 0 or self.scale() % p != 0


class Lifter:
    """Lifts cocycles to chain-map segments along `window`, over the field
    of `table`.

    Of `cx` it reads only `maxdeg` and the cochain spaces, which the rule
    alone fixes, the same over every field: an integral lifter for an F_p
    engine reads that engine's complex and builds no Q complex.
    """

    def __init__(self, cx: CochainComplex, table: AlgebraTable, window: ResolutionWindow):
        self.cx = cx
        self.table = table
        self.window = window
        self._twist = _twist_classes(window)
        # `_graded_triples` by (term kind, s, tt, degree), within one batch
        self._triples: Dict[tuple, list] = {}
        # lift steps solved and steps appended as twists of an earlier step,
        # and eliminations of a lifting system
        self.steps_solved = 0
        self.steps_twisted = 0
        self.lift_eliminations = 0

    def _lift_whole(self, cocycles) -> Dict[tuple, ChainMapSegment]:
        """Segments over (key, (cocycle, degree)) pairs, each lifted whole,
        through step maxdeg - 1 - degree, together with the others: step 0
        is read off the grading (`_lift_cochain`), and from step 1 on, step
        by step, each lifting system meets all of its right-hand sides of the
        step in one elimination (`_solve_steps`).  The caller has checked
        that each is a cocycle."""
        top = self.cx.maxdeg - 1
        new = {key: ChainMapSegment(degree, [self._lift_cochain(degree, vec)])
               for key, (vec, degree) in cocycles}
        self.steps_solved += len(new)
        for k in range(1, top + 1 if new else 0):
            twisted, solve = [], []
            for seg in new.values():
                if seg.base_degree + k > top:
                    continue
                step = self._twisted_step(seg, k)
                if step is None:
                    solve.append(seg)
                else:
                    seg.signs[k], f = step
                    twisted.append((seg, f))
            solved = self._solve_steps(k, solve) if solve else []
            for seg, f in twisted + list(zip(solve, solved, strict=True)):
                seg.maps.append(f)
            self.steps_solved += len(solve)
            self.steps_twisted += len(twisted)
        # every repeat of a graded piece falls within one batch, the one that
        # lifts the generators; kept for the lifter's life the lists would
        # cost more memory than they save time
        self._triples.clear()
        return new

    # Soundness of the period shortcut.  `_twist_classes` marks step k >= 4
    # only where it checks, exactly, that d_k equals tau(d_(k-3)) term for
    # term, that P_k, P_(k-1) equal P_(k-3), P_(k-4), and that the
    # generator-degree steps g(k)-g(k-1) and g(k-3)-g(k-4) agree.  Then each
    # step-k system of `_assemble` has the unknowns and equations of the
    # step-(k-3) system with the same (s, tt, value degree), and since tau
    # multiplies the right factor y' of each value term by (-1)^deg y', the
    # entry of M_k at row (k2, x x', y' y) and column (kt, x, y) is
    # (-1)^(deg y' y) M_(k-3) (-1)^deg y: M_k = E M_(k-3) E with
    # E = diag((-1)^deg(right factor)) on rows and on columns, and E^2 = 1.
    # E is invertible and diagonal, so column j of M_k depends on the columns
    # before it exactly when column j of M_(k-3) does: both have the same
    # pivot columns, and the echelon-canonical solutions (pivot entries T b,
    # free entries 0, linear in b) satisfy S_k(b) = E S_(k-3)(E b).
    #
    # Suppose steps k and degree+k are both marked, and f_(k-1) =
    # eps tau(f_(k-4)) holds exactly.  tau multiplies the right factor of
    # each value term by (-1)^its degree, and degrees add under composition,
    # so tau(f o g) = tau(f) o tau(g).  The step-k right-hand side
    # b_k = f_(k-1) o d_(degree+k) is then eps tau(f_(k-4) o d_(degree+k-3))
    # = eps E b_(k-3); tau keeps value degrees, so b_k splits into the same
    # graded blocks as b_(k-3).  So
    #   f_k = S_k(eps E b_(k-3)) = eps E S_(k-3)(b_(k-3)) = eps tau(f_(k-3)),
    # and that is the map `_solve_steps` would return, byte for byte (by
    # induction every earlier step is the solved one too).  Where a check
    # fails, the step is solved.  Every map `lift_many` appends, and
    # `tau_twist(m, eps)` of any map, is canonical by construction: one
    # nonzero field scalar per key.  So `_twist_sign` tests
    # f_(k-1) = eps tau(f_(k-4)) exactly, by comparing the value dicts of
    # f_(k-1) and `tau_twist(f_(k-4), eps)` for each sign in turn, and the
    # window's d_k = tau(d_(k-3)) are built by the same function.
    #
    # A recorded eps is the one `_twist_sign` would find.  Where f_(k-1) was
    # itself appended as a twist, it is `tau_twist(f_(k-4), eps)` for the
    # eps recorded with it (`ChainMapSegment.signs`), so that eps holds, and
    # the test is skipped.  Both signs hold only where f_(k-4) = 0; then
    # `_twist_sign` says 1 where the record may say -1, but there
    # b_(k-3) = f_(k-4) o d = 0, so f_(k-3), the echelon-canonical solution
    # of a zero system (or, twisted, equal to it), is 0, and both twists of
    # it are the same empty map.  `_twist_sign` runs only where f_(k-1) was
    # solved.
    def _twisted_step(self, seg: ChainMapSegment,
                      k: int) -> Optional[Tuple[int, BimoduleMap]]:
        """(eps, eps tau(f_(k-3))) where the period argument above applies,
        else None."""
        if not (self._twist[k] and self._twist[seg.base_degree + k]):
            return None
        eps = seg.signs.get(k - 1)
        if eps is None:
            eps = _twist_sign(seg.maps[k - 1], seg.maps[k - 4])
            if eps is None:
                return None
        return eps, tau_twist(seg.maps[k - 3], eps)

    # Soundness of step 0.  u o f_0 = phi splits, like every step, by source
    # summand (s, tt) and value degree: one block per monomial mid of phi, its
    # unknowns the value terms x (x) y of degree deg mid (`_graded_triples`).
    # Each piece e_s L_d e_tt is at most one-dimensional (`build_algebra`
    # certifies it), so each x.y is a multiple of mid and the block is one
    # equation.  The pivot of one row is its first nonzero column, so the
    # echelon-canonical solution, as `_solve_steps` gives every other step, is
    # c / coeff(x.y) there and zero elsewhere: the lifts keep their bytes.
    def _lift_cochain(self, degree: int, vec: dict) -> BimoduleMap:
        """Step 0 of the lift of a cocycle: f_0 with u o f_0 the cocycle."""
        w, t, F = self.window, self.table, self.table.field
        comps = self.cx.component_values(degree, vec)
        values = []
        for ks, ((s, tt), comp) in enumerate(zip(w.terms[degree].summands,
                                                 self.cx.spaces[degree].components)):
            out = {}
            for mid, c in comps.get(comp, {}).items():
                for kt, x, y in self._graded(w.terms[0], s, tt, t.basis[mid].degree):
                    hit = t.mono_mul(x, y)
                    if hit is not None and (a := F(hit[0])) != 0:
                        out[(kt, x, y)] = F(F.mul(c, F.inv(a)))
                        break
                else:
                    raise LiftFailedError(
                        f"lifting system inconsistent at step 0, summand {ks}")
            values.append(out)
        # canonical: x.y = +-mid, so distinct mids write distinct keys, each
        # with a nonzero field scalar
        return BimoduleMap(t, w.terms[degree], w.terms[0], values)

    def _solve_steps(self, k: int, segs) -> List[BimoduleMap]:
        """Step k >= 1 of each segment in the batch, solved together.

        Solves d_k o f = f_(k-1) o d_(degree+k) for every segment.  Each
        right-hand side splits by source summand and by value degree: a
        graded cocycle lifts within one piece, a mixed one is handled
        additively.  The blocks of the whole batch are grouped by lifting
        system, and each system eliminates all of its blocks at once
        (`exactla.solve_augmented`).
        """
        w, t, F = self.window, self.table, self.table.field
        blocks: Dict[tuple, list] = {}    # (s, tt, value degree) -> (job, ks, terms)
        values: List[List[dict]] = []
        for job, seg in enumerate(segs):
            rhs = compose(seg.maps[k - 1], w.diffs[seg.base_degree + k]).values
            values.append([{} for _ in rhs])
            for ks, (s, tt) in enumerate(w.terms[seg.base_degree + k].summands):
                parts: Dict[int, dict] = {}
                for key, c in rhs[ks].items():
                    dv = t.basis[key[1]].degree + t.basis[key[2]].degree
                    parts.setdefault(dv, {})[key] = c
                for dv, terms in parts.items():
                    blocks.setdefault((s, tt, dv), []).append((job, ks, terms))
        for (s, tt, dv), group in blocks.items():
            rows, unknowns, eq_pos = self._assemble(k, s, tt, dv)
            n = len(unknowns)
            # block j of the group is column n + j
            for j, (_, ks, terms) in enumerate(group):
                for key, c in terms.items():
                    r = eq_pos.get(key)
                    if r is None:
                        raise LiftFailedError(f"right-hand side outside the graded "
                                              f"piece at step {k}, summand {ks}")
                    rows[r][n + j] = c
            self.lift_eliminations += 1
            for (job, ks, _), sol in zip(group, solve_augmented(rows, n, len(group), F)):
                if sol is None:
                    raise LiftFailedError(
                        f"lifting system inconsistent at step {k}, summand {ks}")
                out = values[job][ks]
                for j, c in sol.items():
                    out[unknowns[j]] = c
        # canonical: the values of `_solutions` are field-canonical and
        # nonzero, and no unknown repeats within a block or across blocks
        return [BimoduleMap(t, w.terms[seg.base_degree + k], w.terms[k], v)
                for seg, v in zip(segs, values)]

    def _graded(self, term, s: int, tt: int, degree: int) -> list:
        """`_graded_triples` of the table, built once per key within a batch.

        A term of the window is P or Q of the table (`projective_p`,
        `projective_q`), so its kind names it.  Shared: read, never change.
        """
        key = (term.kind, s, tt, degree)
        out = self._triples.get(key)
        if out is None:
            out = self._triples[key] = _graded_triples(self.table, term, s, tt, degree)
        return out

    # Soundness of the batch.  The system matrix, its unknowns and its
    # equations are read off (step, s, tt, rhs value degree) and the window
    # alone, never off the cocycle, so every block of one step with that key
    # meets the same matrix.  `_solve_steps` hands it all of them at once,
    # and `solve_augmented` gives each column the echelon-canonical solution
    # of its own system, which depends neither on the other columns nor on
    # how many there are (see its docstring): byte for byte what a solve of
    # that column alone returns.
    #
    # Soundness of the plain sums.  `_assemble` leaves each entry a sum of
    # ints (and, over Q, Fractions) that may be zero or, over F_p, outside
    # 0..p-1.  `_reduce` coerces every row into F as it arrives and drops
    # the entries that vanish there, and coercion from Z (and from Q's ints
    # and Fractions) into F is a ring homomorphism, so the rows it reduces
    # equal, entry for entry, the matrix built by coercing each entry's sum.
    # The pivots, the `rest` test and the echelon-canonical solutions are
    # therefore those of that matrix, and the bytes do not move.
    def _assemble(self, k, s, tt, rhs_value_degree):
        """The rows of plain sums, unknowns and equation rows of one graded
        lifting system."""
        w, t = self.window, self.table
        rule, left, right = t.rule, t.rule_left, t.rule_right
        # the differential raises value degree by g(k) - g(k-1), so the
        # unknown lives that much below the right-hand side
        unknown_degree = rhs_value_degree - (w.gen_degrees[k] - w.gen_degrees[k - 1])
        eq_keys = self._graded(w.terms[k - 1], s, tt, rhs_value_degree)
        unknowns = self._graded(w.terms[k], s, tt, unknown_degree)
        eq_pos = {key: r for r, key in enumerate(eq_keys)}
        dk = w.diffs[k].values
        rows: list = [{} for _ in eq_keys]
        # `resolution.expand` of d_k on each unknown, summed into the rows
        for col, (kt, x, y) in enumerate(unknowns):
            lx, ry = left[x], right[y]
            for (k2, xd, yd), c in dk[kt].items():
                lhs = rule[lx + right[xd]]
                if lhs is None:
                    continue
                rhs = rule[left[yd] + ry]
                if rhs is None:
                    continue
                row = rows[eq_pos[(k2, lhs[1], rhs[1])]]
                row[col] = row.get(col, 0) + c * lhs[0] * rhs[0]
        return rows, unknowns, eq_pos


class YonedaEngine(Lifter):
    """Caches lifts of cocycles and computes products in canonical coordinates;
    it lifts along its own complex's window, over its own field."""

    def __init__(self, cx: CochainComplex):
        super().__init__(cx, cx.table, cx.window)
        self._lift_cache: Dict[tuple, ChainMapSegment] = {}
        self._gens: Optional[List[Tuple[str, int, dict]]] = None
        self._generators_lifted = False
        # `cup_vecs` results by (x key, y key) and `identify` results by key,
        # a key being (degree, sorted items) as in the lift cache; each
        # distinct key is held once in `_keys` and shared by every entry
        self._products: Dict[tuple, dict] = {}
        self._classes: Dict[tuple, CohomologyClass] = {}
        self._keys: Dict[tuple, tuple] = {}
        # generator segments read off integral lifts built for an earlier
        # engine, products asked of `cup_vecs`, and its `pullback` walks
        self.generator_lifts_reused = 0
        self.products = 0
        self.pullback_walks = 0

    def generators(self) -> List[Tuple[str, int, dict]]:
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

    def generator_vector(self, name: str) -> Tuple[int, dict]:
        for gname, deg, vec in self.generators():
            if gname == name:
                return deg, vec
        raise KeyError(name)

    def work(self) -> Dict[str, int]:
        """Work so far: lift steps solved and twisted and eliminations of a
        lifting system, by this engine or by the integral lifter it asked,
        generator segments reused from an earlier engine's integral lifts,
        products asked for, the distinct products and classes among them
        evaluated, and the pull-back walks that evaluated them."""
        return {"lift_steps_solved": self.steps_solved,
                "lift_steps_twisted": self.steps_twisted,
                "lifting_eliminations": self.lift_eliminations,
                "generator_lifts_reused": self.generator_lifts_reused,
                "products": self.products,
                "products_evaluated": len(self._products),
                "classes_identified": len(self._classes),
                "pullback_walks": self.pullback_walks}

    # -- lifting ------------------------------------------------------------

    def lift(self, vec: dict, degree: int, steps: int) -> ChainMapSegment:
        """Chain-map segment over the given cocycle, read through step `steps`."""
        return self.lift_many([(vec, degree, steps)])[0]

    def lift_many(self, requests) -> List[ChainMapSegment]:
        """Segments over several (cocycle, degree, steps) requests.

        `steps` names the deepest step the caller reads.  Every cocycle not
        lifted before is lifted whole, in this engine's field, together with
        the others (`_lift_whole`).  The new segments enter the cache only
        once whole, so a step that fails leaves none of them behind.
        """
        top = self.cx.maxdeg - 1
        keys, new = [], {}
        for vec, degree, steps in requests:
            if degree + steps > top:
                raise ValueError("window too shallow for the requested lift")
            key = self._key(degree, vec)
            keys.append(key)
            if key in self._lift_cache:
                # a key is lifted only after its vector passed this check,
                # so a cache hit is a cocycle already
                continue
            if not self.cx.is_cocycle(degree, vec):
                raise NotACocycleError(f"input of degree {degree} is not a cocycle")
            new[key] = (vec, degree)
        # a batch of cache hits, as nearly every product's is, takes no step
        self._lift_cache.update(self._lift_whole(new.items()))
        return [self._lift_cache[key] for key in keys]

    def _lift_generators(self):
        """Lift every ring generator, each through step maxdeg - 1 - its
        degree, the deepest step a product in the window could read; the
        certificate's products read less: at n=7 the degree-1, -2 and -3
        lifts only through step 6.

        The segments are the integral lifts of this engine's rule where the
        checks of the note at `_INTEGRAL_LIFTS` pass, lifted first if no
        engine before lifted them (`_lift_integrally`), and else lifted in
        this field; a generator cached already keeps its segment.
        """
        top, cx = self.cx.maxdeg - 1, self.cx
        requests = [(vec, d, top - d) for _, d, vec in self.generators()]
        keys = [self._key(d, vec) for vec, d, _ in requests]
        slot = (_rule_key(self.table), cx.maxdeg)
        lifts = _INTEGRAL_LIFTS.get(slot)
        reused = lifts is not None
        if lifts is None:
            # emptied first: the process never holds two lifts at once
            _INTEGRAL_LIFTS.clear()
            lifts = self._lift_integrally(slot[0], keys, requests)
            if lifts is not None:
                _INTEGRAL_LIFTS[slot] = lifts
        if lifts is None or not lifts.reducible_to(self.window, keys):
            self.lift_many(requests)
        else:
            for key, (vec, d, _) in zip(keys, requests):
                if key in self._lift_cache:
                    continue
                # the cache holds cocycles only, checked in this field
                if not cx.is_cocycle(d, vec):
                    raise NotACocycleError(f"input of degree {d} is not a cocycle")
                self._lift_cache[key] = lifts.segments[key]
                if reused:
                    self.generator_lifts_reused += 1
        self._generators_lifted = True

    def _lift_integrally(self, rule: tuple, keys, requests) -> Optional[IntegralLifts]:
        """The generators lifted over Q, or None where that is not done.

        Over Q the lifts are this engine's own.  Over F_p a `Lifter` lifts
        the cocycles, their items taken as ints, along a Q window of the
        integral tables of n, reading this engine's cochain spaces; its work
        counts as this engine's.  None where those tables have another rule
        than `rule`, this engine's, or a step is inconsistent over Q.
        """
        t, maxdeg = self.table, self.cx.maxdeg
        if t.field.characteristic == 0:
            return IntegralLifts(self.window, dict(zip(keys, self.lift_many(requests))))
        basis, g, _ = _integral_tables(t.n)
        table = AlgebraTable(t.n, QQ, basis, g)
        if _rule_key(table) != rule:
            return None
        window = build_resolution(table, associated_form(table), maxdeg)
        lifter = Lifter(self.cx, table, window)
        try:
            segments = lifter._lift_whole(
                (key, (vec, degree)) for key, (vec, degree, _) in zip(keys, requests))
        except LiftFailedError:
            return None
        finally:
            self.steps_solved += lifter.steps_solved
            self.steps_twisted += lifter.steps_twisted
            self.lift_eliminations += lifter.lift_eliminations
        return IntegralLifts(window, segments)

    # -- products -------------------------------------------------------------

    def central_from_v0(self, vec: dict) -> dict:
        """The central element of a degree-0 cochain: each monomial of V^0
        lies in the component of its own vertex, so none repeats."""
        basis = self.cx.spaces[0].basis
        return {basis[r][1]: c for r, c in vec.items()}

    def _key(self, degree: int, vec: dict) -> tuple:
        """(degree, sorted items) of a cochain, the form the lift cache keys
        on, held once per distinct vector."""
        key = (degree, tuple(sorted(vec.items())))
        return self._keys.setdefault(key, key)

    # Soundness of the memos.  On a fixed engine `cup_vecs` and `identify` are
    # pure functions of their operands: a lift is cached only whole, so every
    # product reads the same segment; the canonical basis and class solver of
    # each degree are built once per complex; and the cochains are canonical
    # sparse dicts, one nonzero field-canonical scalar per position, so equal
    # vectors have equal sorted items (over Q an integral Fraction and its
    # int compare and hash equal, and coerce alike).  A hit therefore returns
    # byte for byte what a recomputation would.  The window check runs before
    # the lookup; a call that raises, on a cocycle error or any other, stores
    # nothing, so a hit follows a call on equal operands that returned and
    # hides no error.  Callers read the stored vectors and classes and never
    # change them.
    #
    # Soundness of the batch.  The products x*y of one batch share y, so they
    # read one segment, and `pullback` keeps one accumulator per input: each
    # output sums the same terms, in the same order, as a walk over its x
    # alone would, so the batch returns x o f for every x.  A key that repeats
    # in the batch, or is held already, is evaluated at most once, so
    # `products_evaluated` counts the distinct products as one call per
    # product would; the memo is written only after every product of the
    # batch is computed, so a batch that raises stores none of them.
    def cup_vecs(self, xvecs: List[dict], dx: int, yvec: dict, dy: int) -> List[dict]:
        """Cochain representatives of the products x*y, one per x of degree dx."""
        cx = self.cx
        if dx + dy > cx.maxdeg - 1:
            raise ValueError("product degree exceeds the window")
        self.products += len(xvecs)
        ykey = self._key(dy, yvec)
        keys = [(self._key(dx, x), ykey) for x in xvecs]
        misses: Dict[tuple, dict] = {}
        for key, x in zip(keys, xvecs):
            if key not in self._products:
                misses.setdefault(key, x)
        if misses:
            if dx == 0:
                outs = [cx.scale_vector(dy, self.central_from_v0(x), yvec)
                        for x in misses.values()]
            elif dy == 0:
                z = self.central_from_v0(yvec)
                outs = [cx.scale_vector(dx, z, x) for x in misses.values()]
            else:
                if not self._generators_lifted:
                    self._lift_generators()
                f = self.lift(yvec, dy, dx).maps[dx]
                outs = cx.pullback(f, dx, dx + dy, list(misses.values()))
                self.pullback_walks += 1
            self._products.update(zip(misses, outs))
        return [self._products[key] for key in keys]

    def cup_vec(self, xvec: dict, dx: int, yvec: dict, dy: int) -> dict:
        """Cochain representative of the product of two cocycles."""
        return self.cup_vecs([xvec], dx, yvec, dy)[0]

    def identify(self, vec: dict, degree: int) -> CohomologyClass:
        """Coordinates over the canonical basis, modulo coboundaries.

        `coords` succeeds only on cocycles, so `is_cocycle` only names the error.
        """
        key = self._key(degree, vec)
        cls = self._classes.get(key)
        if cls is not None:
            return cls
        basis = canonical_cocycles(self.cx, degree)
        coords = basis.coords(vec)
        if coords is None:
            if not self.cx.is_cocycle(degree, vec):
                raise NotACocycleError(
                    f"identify: input of degree {degree} is not a cocycle")
            raise IdentificationError(
                f"cocycle of degree {degree} not in the canonical span")
        cls = self._classes[key] = CohomologyClass(degree, coords, tuple(basis.labels))
        return cls

    def cup(self, xvec: dict, dx: int, yvec: dict, dy: int) -> CohomologyClass:
        return self.identify(self.cup_vec(xvec, dx, yvec, dy), dx + dy)

    def product_table(self) -> Dict[Tuple[str, str], CohomologyClass]:
        """All ordered products of the positive-degree ring generators."""
        out = {}
        gens = self.generators()
        by_degree: Dict[int, list] = {}
        for name, d, v in gens:
            by_degree.setdefault(d, []).append((name, v))
        for name2, d2, v2 in gens:
            # one batch per left degree: its products read one step of v2's lift
            for d1, left in by_degree.items():
                if d1 + d2 > self.cx.maxdeg - 1:
                    continue
                prods = self.cup_vecs([v1 for _, v1 in left], d1, v2, d2)
                for (name1, _), vec in zip(left, prods):
                    out[(name1, name2)] = self.identify(vec, d1 + d2)
        return out


def _twist_classes(w: ResolutionWindow) -> List[bool]:
    """For every step 0..depth: is d_k = tau(d_(k-3)) on equal terms?

    True for k >= 4 where d_k equals tau(d_(k-3)) on the same source and
    target terms and with the same generator-degree step.  See the soundness
    note at `YonedaEngine._twisted_step`.
    """
    g = w.gen_degrees
    return [k >= 4 and w.terms[k] == w.terms[k - 3]
            and w.terms[k - 1] == w.terms[k - 4]
            and g[k] - g[k - 1] == g[k - 3] - g[k - 4]
            and w.diffs[k].equals(tau_twist(w.diffs[k - 3]))
            for k in range(w.depth + 1)]


def _twist_sign(later: BimoduleMap, earlier: BimoduleMap) -> Optional[int]:
    """The eps in {1, -1} with later = eps tau(earlier), or None; maps
    without terms take eps = 1.  Both maps are canonical by construction,
    so equal value dicts are equal maps."""
    for eps in (1, -1):
        if later.values == tau_twist(earlier, eps).values:
            return eps
    return None


def _graded_triples(t: AlgebraTable, term, s: int, tt: int, degree: int) -> list:
    """Keys (summand, x, y) of the value terms x (x) y in `term`, of total
    degree `degree`, that a map from the elementary bimodule at (s, tt) takes.

    Each graded piece e_v L_d e_tt is at most one-dimensional, so x fixes y.
    """
    return [(k, x.mid, y) for k, (u, v) in enumerate(term.summands)
            for x in t.by_ends.get((s, u), ())
            if (y := t.by_ijd.get((v, tt, degree - x.degree))) is not None]


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


def c_matrix(t: AlgebraTable, engine: Optional[YonedaEngine] = None) -> dict:
    """The multiplication-by-y matrix, computed three independent ways.

    The combinatorial basis sum, the closed form, and (when an engine is
    supplied) the cup products y*z_k in the degree-3 canonical basis must
    agree entry for entry; each disagreement is a failure line, as are a
    failed adjacency identity and |det C| other than (2n+1)^(n-1).  Returns
    the certificate's c_matrix section, with the rank over the table's
    field; it holds "failures" only when there are some, so a passing body
    keeps its bytes, and it passes exactly when it holds none.
    """
    n = t.n
    comb = combinatorial_c_matrix(t)
    closed = closed_form_c_matrix(n)
    failures: List[str] = []
    if comb != closed:
        failures.append(
            f"combinatorial and closed-form entries disagree: {comb} vs {closed}")
    F = t.field
    if engine is not None:
        ydeg, yvec = engine.generator_vector("y")
        for k in range(1, n + 1):
            zdeg, zvec = engine.generator_vector(f"z{k}")
            cls = engine.cup(yvec, ydeg, zvec, zdeg)
            for j in range(1, n + 1):
                got = cls.coords.get(j - 1, 0)
                if got != F(comb[j - 1][k - 1]):
                    failures.append(
                        f"cup product coordinate ({j},{k}) = {got}, "
                        f"expected {comb[j - 1][k - 1]}")
    rank = ExactMatrix(F, comb).rank()
    comb_det = int(det(comb, FieldSpec(0)))
    D = adjacency_matrix(n)
    ident = all(
        -sum(comb[i][k] * (2 * (k == j) + D[k][j]) for k in range(n))
        == (2 * n + 1) * (i == j)
        for i in range(n) for j in range(n))
    if not ident:
        failures.append(f"-C (2I + D) is not {2 * n + 1} I")
    if abs(comb_det) != (2 * n + 1) ** (n - 1):
        failures.append(f"|det C| = {abs(comb_det)}, expected (2n+1)^(n-1) = "
                        f"{(2 * n + 1) ** (n - 1)}")
    section = {"entries": comb, "rank": rank, "det": comb_det,
               "det_sign": 0 if comb_det == 0 else (1 if comb_det > 0 else -1),
               "adjacency_identity": ident}
    if failures:
        section["failures"] = failures
    return section


# -- h-periodicity checks ------------------------------------------------------


def stable_structure_check(engine: YonedaEngine) -> dict:
    """Multiplication by h: bijective on degrees 1..6, kernel Soc on degree 0.

    Returns the certificate's stable section; it holds "failures" only when
    there are some, so a passing body keeps its bytes."""
    t, F = engine.table, engine.table.field
    n = t.n
    hdeg, hvec = engine.generator_vector("h")

    def h_matrix(i):
        """Multiplication by h from degree i, over the canonical classes."""
        prods = engine.cup_vecs(canonical_cocycles(engine.cx, i).vectors, i, hvec, hdeg)
        cols = [engine.identify(vec, i + hdeg).coords for vec in prods]
        return ExactMatrix.from_columns(
            F, len(canonical_cocycles(engine.cx, i + hdeg).vectors), cols)

    failures: List[str] = []
    bij: Dict[str, bool] = {}
    for i in range(1, 7):
        m = h_matrix(i)
        bij[str(i)] = m.rank() == m.ncols
        if not bij[str(i)]:
            failures.append(f"h-multiplication drops rank in degree {i}")
    basis0 = canonical_cocycles(engine.cx, 0)
    kernel = h_matrix(0).kernel_basis()
    # the kernel must be exactly the span of the socle classes x_1..x_n: n
    # vectors, each supported on their coordinates
    socle = {basis0.labels.index(f"x{i}") for i in range(1, n + 1)}
    ok = len(kernel) == n and all(v.keys() <= socle for v in kernel)
    if not ok:
        failures.append("degree-0 kernel of h-multiplication is not the socle span")
    # sound: each False flag above wrote a failure line
    section = {"h_bijective": bij, "degree0_kernel_is_socle": ok, "ok": not failures}
    if failures:
        section["failures"] = failures
    return section
