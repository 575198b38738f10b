"""Generator/relation presentations of the cohomology ring, verified.

Two regimes: generic (the characteristic does not divide 2n+1) and modular
(it does), differing in the extra degree-3 generators t_1..t_{n-1} and
their relations.  `verify` evaluates every relation through the product
engine as an identity of canonical coordinates, then runs the dimension
audit: products of generators must span HH^i with the right dimension for
every degree through 12, mirroring the surjectivity-plus-dimension-count
closing argument.  The audit keeps one basis per degree, modulo
coboundaries, built from the kept bases of lower degrees times the
positive-degree generators; that span is already stable under HH^0 = Z(L),
so HH^* is checked as a module over Z(L) without a closure step.  The
products are evaluated lazily, highest generator degree first, and a degree
stops at the first product that completes its canonical span.  A candidate
whose support decides it (no coordinates, or one where no kept vector has
any) is kept or dropped without an elimination; only the rest is ranked.
`verify` returns the presentation section of the certificate, where each
failing relation, derived identity and audit degree leaves one line in
`failures`.  The h-localized structure is checked by
`yoneda.stable_structure_check`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Tuple

from .cochain import canonical_cocycles
from .exactla import ExactMatrix, FieldSpec, UnsupportedCharacteristicError
from .yoneda import YonedaEngine, closed_form_c_matrix

Monomial = Tuple[str, ...]


class Relation(namedtuple("Relation", "label terms")):
    """The sum of coeff * product over the `terms`, (coeff, monomial) pairs,
    is 0."""

    __slots__ = ()


class PresentationSpec:
    # not a named tuple: tests reassign its fields to build failing inputs
    __slots__ = ("n", "field", "regime", "generators", "relations", "derived")

    def __init__(self, n: int, field: FieldSpec, regime: str,
                 generators: List[Tuple[str, int]], relations: List[Relation],
                 derived: List[Relation]):
        self.n = n
        self.field = field
        self.regime = regime  # "generic" or "modular"
        self.generators = generators
        self.relations = relations
        self.derived = derived  # consequences checked alongside


def theorem_spec(n: int, field: FieldSpec) -> PresentationSpec:
    """Materialize the presentation for (n, field) with explicit coefficients."""
    if field.characteristic == 2:
        raise UnsupportedCharacteristicError("characteristic 2 unsupported")
    p = field.characteristic
    modular = p != 0 and (2 * n + 1) % p == 0
    regime = "modular" if modular else "generic"

    gens: List[Tuple[str, int]] = [(f"x{i}", 0) for i in range(0, n + 1)]
    gens.append(("y", 1))
    gens += [(f"z{j}", 2) for j in range(1, n + 1)]
    if modular:
        gens += [(f"t{k}", 3) for k in range(1, n)]
    gens.append(("gamma", 4))
    gens.append(("h", 6))

    relations: List[Relation] = []

    def rel(label, *terms):
        relations.append(Relation(label, tuple(terms)))

    for i in range(1, n + 1):
        for gname, _ in gens:
            rel(f"x{i}*{gname}=0", (1, (f"x{i}", gname)))
    rel("x0^n=0", (1, ("x0",) * n))
    rel("y^2=0", (1, ("y", "y")))
    for j in range(1, n + 1):
        rel(f"x0*z{j}=0", (1, ("x0", f"z{j}")))
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            coeff = (-1) ** (k - j + 1) * (2 * j - 1) * (n - k + 1)
            rel(f"z{j}*z{k}=({coeff})x0^{n - 1}*gamma",
                (1, (f"z{j}", f"z{k}")),
                (-coeff, ("x0",) * (n - 1) + ("gamma",)))
    for j in range(1, n + 1):
        coeff = (-1) ** j * (n - j + 1)
        rel(f"z{j}*gamma=({coeff})x0^{n - 1}*h",
            (1, (f"z{j}", "gamma")),
            (-coeff, ("x0",) * (n - 1) + ("h",)))
    rel("gamma^2=z1*h", (1, ("gamma", "gamma")), (-1, ("z1", "h")))

    if modular:
        for i in range(1, n):
            rel(f"x0*t{i}=0", (1, ("x0", f"t{i}")))
            rel(f"y*t{i}=0", (1, ("y", f"t{i}")))
            for k in range(1, n):
                rel(f"t{i}*t{k}=0", (1, (f"t{i}", f"t{k}")))
        for j in range(2, n + 1):
            coeff = (-1) ** (j - 1) * (2 * j - 1)
            rel(f"y*z{j}=({coeff})y*z1",
                (1, ("y", f"z{j}")), (-coeff, ("y", "z1")))
        for k in range(1, n + 1):
            for j in range(1, n):
                delta = 1 if j == k else 0
                rel(f"z{k}*t{j}={delta}*x0^{n - 1}*y*gamma",
                    (1, (f"z{k}", f"t{j}")),
                    (-delta, ("x0",) * (n - 1) + ("y", "gamma")))
        for j in range(1, n):
            delta = 1 if j == 1 else 0
            rel(f"t{j}*gamma={delta}*x0^{n - 1}*y*h",
                (1, (f"t{j}", "gamma")),
                (-delta, ("x0",) * (n - 1) + ("y", "h")))

    # consequences valid in every characteristic; in the generic regime the
    # t classes are not generators but remain canonical degree-3 classes
    derived: List[Relation] = []
    C = closed_form_c_matrix(n)
    for k in range(1, n + 1):
        terms = [(1, ("y", f"z{k}"))]
        terms += [(-C[j - 1][k - 1], (f"t{j}",)) for j in range(1, n + 1)
                  if C[j - 1][k - 1] != 0]
        derived.append(Relation(f"y*z{k}=sum_j C[j,{k}]t{j}", tuple(terms)))
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            delta = 1 if j == k else 0
            derived.append(Relation(
                f"z{k}*t{j}={delta}*x0^{n - 1}*y*gamma",
                ((1, (f"z{k}", f"t{j}")),
                 (-delta, ("x0",) * (n - 1) + ("y", "gamma")))))
    for j in range(1, n + 1):
        delta = 1 if j == 1 else 0
        derived.append(Relation(
            f"t{j}*gamma={delta}*x0^{n - 1}*y*h",
            ((1, (f"t{j}", "gamma")),
             (-delta, ("x0",) * (n - 1) + ("y", "h")))))

    return PresentationSpec(n, field, regime, gens, relations, derived)


class _Evaluator:
    """Evaluates generator monomials to cochain vectors, left to right."""

    def __init__(self, engine: YonedaEngine, spec: PresentationSpec):
        self.engine = engine
        self.spec = spec
        self.cache: Dict[Monomial, Tuple[int, dict]] = {}
        self.gen_vectors: Dict[str, Tuple[int, dict]] = {}
        t = engine.table
        from .algebra import socle_basis, x0_element
        socle = socle_basis(t)
        for name, deg in spec.generators:
            if deg == 0:
                elem = x0_element(t, 1) if name == "x0" else socle[int(name[1:]) - 1]
                self.gen_vectors[name] = (0, engine.cx.diagonal_vector(0, elem))
            else:
                self.gen_vectors[name] = engine.generator_vector(name)
        # canonical degree-3 classes are needed for the derived identities
        for k in range(1, t.n + 1):
            self.gen_vectors.setdefault(f"t{k}", engine.generator_vector(f"t{k}"))

    def vector(self, mono: Monomial) -> Tuple[int, dict]:
        if mono in self.cache:
            return self.cache[mono]
        deg, vec = self.gen_vectors[mono[0]]
        for name in mono[1:]:
            d2, v2 = self.gen_vectors[name]
            vec = self.engine.cup_vec(vec, deg, v2, d2)
            deg += d2
        self.cache[mono] = (deg, vec)
        return self.cache[mono]


def verify(spec: PresentationSpec, engine: YonedaEngine) -> dict:
    """Check every relation and run the spanning audit through degree 12,
    which needs an engine over maxdeg >= 13, as `compute_certificate` asks.

    Returns the certificate's presentation section: each relation and
    derived identity as [label, ok, residual], the audit as degree ->
    [achieved, expected], and the failures."""
    F = engine.table.field
    ev = _Evaluator(engine, spec)

    def check(relations):
        results = []
        for r in relations:
            degs = set()
            vecs = []
            for coeff, mono in r.terms:
                d, v = ev.vector(mono)
                degs.add(d)
                vecs.append((coeff, v))
            if len(degs) != 1:
                results.append([r.label, False, "inhomogeneous"])
                continue
            deg = degs.pop()
            # summed as plain numbers over the nonzeros only, coerced once each
            acc: dict = {}
            for coeff, v in vecs:
                for i, b in v.items():
                    acc[i] = acc.get(i, 0) + coeff * b
            cls = engine.identify({i: fa for i, a in acc.items() if (fa := F(a))}, deg)
            results.append([r.label, cls.is_zero(), str(cls)])
        return results

    relations, derived = check(spec.relations), check(spec.derived)
    audit = _span_audit(spec, engine, ev)
    # the witness of a failing verdict; empty on a passing point, whose
    # body therefore keeps its bytes
    failures = [f"{label}: residual {residual}"
                for label, ok, residual in relations + derived if not ok]
    failures += [f"audit degree {d}: spanned {got}, expected {want}"
                 for d, (got, want) in sorted(audit.items()) if got != want]
    return {"regime": spec.regime, "relations": relations, "derived": derived,
            "audit": {str(d): list(v) for d, v in sorted(audit.items())},
            "failures": failures,
            # sound: each failing relation and short audit degree wrote a line
            "ok": not failures}


# Soundness of the audit without a closure step.  HH^* is a module over
# HH^0 = Z(L), and the kept span S_i of each degree is already Z(L)-stable,
# by induction on i.  S_0 is all of HH^0.  S_i is spanned by the products
# w*g = w o f, w in the kept basis of degree i-d and f a lift of the
# degree-d generator g.  A central z acts on the values, so
# z.(w o f) = (z.w) o f; by induction z.w is a combination of the kept w'
# plus a coboundary, and a coboundary composed with the chain map f is a
# coboundary.  So z.(w*g) lies in S_i modulo coboundaries, and multiplying
# by the degree-0 generators, as a closure loop would, keeps nothing (a
# test checks this for n = 1..4).  Without that loop an audit rank can only
# be lower, never higher, so a degree the products fail to span still
# fails.  A cup product depends only on classes, so later degrees may build
# their candidates from any basis of S_i, and the audit records ranks only.
#
# Soundness of stopping at full rank.  The canonical coordinates of degree i
# live in F^c, c the number of canonical classes, so once c candidates are
# kept no later one can be independent of them: S_i is the whole canonical
# span, whatever the order, and the candidates left are not evaluated.
# Where the rank stays below c every candidate is evaluated, and the span of
# all of them does not depend on their order either; so the audit ranks are
# those of the generator-major order with every product identified.  An
# identification of a skipped product would add no check: w o f is a
# cocycle by construction (w a cocycle, f a chain map), and the `dimensions`
# verdict together with the rank check of `canonical_cocycles` guarantees
# that every cocycle of degree i is a combination of the c canonical classes
# plus a coboundary, so its identification cannot fail.  The candidates come
# highest generator degree first, and within one degree the kept vectors of
# the lower degree are the outer loop: from degree 7 on, the products of the
# kept basis of degree i-6 with h, which `stable_structure_check` finds
# bijective, fill the span first.
def _span_audit(spec, engine, ev):
    """Products of generators must span each HH^i, i <= 12, with the
    expected dimension.

    Degree i keeps one list of cochains independent modulo coboundaries,
    chosen from the products (kept degree i-d basis) * (degree-d generator).
    Each product is evaluated honestly through the engine and identified in
    canonical coordinates when its turn comes, and the products after the
    one that completes the canonical span are never evaluated.
    """
    n = spec.n
    by_degree: Dict[int, list] = {}
    for name, d in spec.generators:
        if d > 0:
            by_degree.setdefault(d, []).append(ev.gen_vectors[name][1])
    kept: Dict[int, list] = {0: []}
    _keep_independent(engine, 0, kept[0],
                      canonical_cocycles(engine.cx, 0).vectors)
    audit: Dict[int, Tuple[int, int]] = {0: (len(kept[0]), 2 * n)}
    for i in range(1, 13):
        kept[i] = []
        _keep_independent(engine, i, kept[i], (
            engine.cup_vec(w, i - d, gvec, d)
            for d in sorted(by_degree, reverse=True) if d <= i
            for w, _ in kept[i - d] for gvec in by_degree[d]))
        audit[i] = (len(kept[i]), n)
    return audit


def _keep_independent(engine, degree, kept, vectors):
    """Append to `kept` the vectors independent of it and of those before them.

    `kept` holds (cochain, canonical coordinates) pairs independent modulo
    coboundaries.  `vectors` may be lazy: each is drawn and identified only
    while `kept` is short of the canonical dimension, and kept where it
    raises the rank, the greedy choice that the pivot columns of one
    elimination over all of them make.
    """
    F = engine.table.field
    cap = len(canonical_cocycles(engine.cx, degree).vectors)
    coords = [c for _, c in kept]
    support = {j for c in coords for j in c}
    for v in vectors:
        if len(coords) >= cap:
            break
        c = engine.identify(v, degree).coords
        # decided by supports, over any field: the zero class lies in every
        # span, and a vector nonzero where every kept vector is zero lies
        # outside their span; only the rest is ranked
        if not c:
            continue
        if c.keys() <= support and (
                ExactMatrix.from_columns(F, cap, coords + [c]).rank() == len(coords)):
            continue
        kept.append((v, c))
        coords.append(c)
        support.update(c)
