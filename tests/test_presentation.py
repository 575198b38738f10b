from types import SimpleNamespace

import pytest

from preproj_hh.algebra import center_basis
from preproj_hh.cochain import canonical_cocycles
from preproj_hh.exactla import ExactMatrix, FieldSpec, UnsupportedCharacteristicError
from preproj_hh.presentation import _Evaluator, _span_audit, theorem_spec, verify
from preproj_hh.yoneda import stable_structure_check
from conftest import context


def rel_labels(spec):
    return {r.label for r in spec.relations}


def test_regime_selection():
    assert theorem_spec(2, FieldSpec(0)).regime == "generic"
    assert theorem_spec(2, FieldSpec(3)).regime == "generic"
    assert theorem_spec(2, FieldSpec(5)).regime == "modular"
    assert theorem_spec(3, FieldSpec(7)).regime == "modular"
    assert theorem_spec(7, FieldSpec(3)).regime == "modular"
    with pytest.raises(UnsupportedCharacteristicError):
        theorem_spec(2, FieldSpec(2))


def test_generators_by_regime():
    spec = theorem_spec(2, FieldSpec(0))
    assert [g for g in spec.generators] == [
        ("x0", 0), ("x1", 0), ("x2", 0), ("y", 1), ("z1", 2), ("z2", 2),
        ("gamma", 4), ("h", 6)]
    spec5 = theorem_spec(2, FieldSpec(5))
    assert ("t1", 3) in spec5.generators
    assert ("t2", 3) not in spec5.generators


def test_relation_coefficients_n2():
    spec = theorem_spec(2, FieldSpec(0))
    labels = rel_labels(spec)
    # z_1 z_2 = (-1)^2 (1)(1) x0 gamma
    assert "z1*z2=(1)x0^1*gamma" in labels
    spec5 = theorem_spec(2, FieldSpec(5))
    assert "y*z2=(-3)y*z1" in rel_labels(spec5)


def test_degenerate_ranges_n1():
    spec = theorem_spec(1, FieldSpec(0))
    labels = rel_labels(spec)
    assert "x0^n=0" in labels  # here x0^1 = x0 itself
    assert not any("t1" in lab for lab in labels)
    spec3 = theorem_spec(1, FieldSpec(3))
    assert spec3.regime == "modular"
    assert all(gen[0] != "t1" for gen in spec3.generators)


@pytest.mark.parametrize("n,char", [(1, 0), (2, 0), (2, 3), (3, 7), (2, 5)])
def test_verify_passes(n, char):
    ctx = context(n, char)
    spec = theorem_spec(n, FieldSpec(char))
    report = verify(spec, ctx.engine)
    assert report["ok"], [label for label, ok, _ in report["relations"] if not ok]
    assert all(got == want for got, want in report["audit"].values())
    assert report["audit"]["0"] == [2 * n, 2 * n]
    for d in range(1, 13):
        assert report["audit"][str(d)] == [n, n]


@pytest.mark.parametrize("n,char", [(2, 0), (2, 5), (3, 7)])
def test_derived_identities_hold_in_both_regimes(n, char):
    ctx = context(n, char)
    spec = theorem_spec(n, FieldSpec(char))
    report = verify(spec, ctx.engine)
    assert all(ok for _, ok, _ in report["derived"]), [
        label for label, ok, _ in report["derived"] if not ok]


@pytest.mark.parametrize("n,char", [(2, 0), (2, 5), (3, 0)])
def test_stable_check(n, char):
    rep = stable_structure_check(context(n, char).engine)
    assert rep["ok"]
    assert all(rep["h_bijective"].values())
    assert rep["degree0_kernel_is_socle"]


@pytest.mark.parametrize("n,char", [(2, 0), (3, 5)])
def test_stable_check_fails_when_the_kernel_leaves_the_socle_span(n, char, monkeypatch):
    # labels 1 and x1 swapped in degree 0: the kernel of h-multiplication
    # keeps its n dimensions, but one of its vectors sits at the position
    # now labelled 1, outside the span of the positions labelled x_i
    import preproj_hh.yoneda as Y
    from preproj_hh.cochain import CanonicalBasis
    true_canonical = Y.canonical_cocycles

    def swapped(cx, degree):
        basis = true_canonical(cx, degree)
        if degree != 0:
            return basis
        swap = {"1": "x1", "x1": "1"}
        return CanonicalBasis(basis.degree, [swap.get(lab, lab) for lab in basis.labels],
                              basis.vectors, basis.solver)

    engine = context(n, char).engine
    assert stable_structure_check(engine)["ok"]
    monkeypatch.setattr(Y, "canonical_cocycles", swapped)
    rep = stable_structure_check(engine)
    assert not rep["degree0_kernel_is_socle"] and not rep["ok"]
    assert all(rep["h_bijective"].values())
    assert rep["failures"] == ["degree-0 kernel of h-multiplication is not the socle span"]
    # the failures are written into the section, next to the verdict fields
    assert set(rep) == {"h_bijective", "degree0_kernel_is_socle", "ok", "failures"}


def test_report_serialization():
    ctx = context(2)
    spec = theorem_spec(2, FieldSpec(0))
    doc = verify(spec, ctx.engine)
    assert doc["ok"] is True
    assert doc["regime"] == "generic"
    assert set(doc.keys()) == {"regime", "relations", "derived", "audit",
                               "failures", "ok"}
    assert doc["audit"]["0"] == [4, 4]


def _reference_span_audit(spec, engine, audit_to=12):
    # the frontier closure: every candidate, dependent ones included, is
    # multiplied by every degree-0 generator until a round adds no rank
    F = engine.table.field
    ev = _Evaluator(engine, spec)
    n = spec.n
    pos_gens = [(name, d) for name, d in spec.generators if d > 0]
    zero_gens = [name for name, d in spec.generators if d == 0]
    basis0 = canonical_cocycles(engine.cx, 0)
    span_vecs = {0: [dict(v) for v in basis0.vectors]}
    audit = {0: (ExactMatrix.from_columns(
        F, 2 * n, [engine.identify(v, 0).coords for v in span_vecs[0]]).rank(), 2 * n)}
    for i in range(1, audit_to + 1):
        dim = len(canonical_cocycles(engine.cx, i).vectors)
        candidates = []
        for name, d in pos_gens:
            if d > i:
                continue
            gd, gvec = ev.gen_vectors[name]
            for w in span_vecs[i - d]:
                candidates.append(engine.cup_vec(w, i - d, gvec, gd))
        coords = [engine.identify(v, i).coords for v in candidates]
        rank = ExactMatrix.from_columns(F, dim, coords).rank()
        frontier = list(candidates)
        while frontier:
            new_frontier = []
            for name in zero_gens:
                z = engine.central_from_v0(ev.gen_vectors[name][1])
                for v in frontier:
                    new_frontier.append(engine.cx.scale_vector(i, z, v))
            new_coords = [engine.identify(v, i).coords for v in new_frontier]
            rank_after = ExactMatrix.from_columns(F, dim, coords + new_coords).rank()
            if rank_after == rank:
                break
            candidates.extend(new_frontier)
            coords.extend(new_coords)
            rank = rank_after
            frontier = new_frontier
        audit[i] = (rank, n)
        pivots = ExactMatrix.from_columns(F, dim, coords).echelonize().pivot_columns
        span_vecs[i] = [candidates[c] for c in pivots]
    return audit


@pytest.mark.parametrize("char", [0, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_span_audit_matches_the_frontier_closure(n, char):
    # closing one basis per degree reaches the span that closing every
    # candidate does; (1, 3), (2, 5) and (3, 7) are modular
    spec = theorem_spec(n, FieldSpec(char))
    engine = context(n, char).engine
    assert verify(spec, engine)["audit"] == {
        str(d): list(v) for d, v in _reference_span_audit(spec, engine).items()}


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_central_elements_commute_with_the_cochain_differentials(n, char):
    # the premise of the span audit: z times a coboundary is a coboundary
    ctx = context(n, char)
    cx, F = ctx.cx, ctx.field
    center = center_basis(ctx.table)
    for i in range(13):
        for j in range(cx.spaces[i].dim):
            e = {j: F.one}
            de = cx.diffs[i].matvec(e)
            for z in center:
                assert (cx.diffs[i].matvec(cx.scale_vector(i, z, e))
                        == cx.scale_vector(i + 1, z, de)), (i, j, z)


@pytest.mark.parametrize("char", [0, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kept_bases_are_already_closed_under_the_center(n, char, monkeypatch):
    # the audit has no closure step: multiplying each degree's kept basis by
    # every degree-0 generator keeps nothing new
    import preproj_hh.presentation as P
    spec = theorem_spec(n, FieldSpec(char))
    engine = context(n, char).engine
    kept_by_degree = {}
    true_keep = P._keep_independent

    def recording_keep(engine, degree, kept, vectors):
        kept_by_degree[degree] = kept
        true_keep(engine, degree, kept, vectors)

    monkeypatch.setattr(P, "_keep_independent", recording_keep)
    verify(spec, engine)
    ev = _Evaluator(engine, spec)
    central = [engine.central_from_v0(ev.gen_vectors[name][1])
               for name, d in spec.generators if d == 0]
    assert sorted(kept_by_degree) == list(range(13))
    for degree, kept in kept_by_degree.items():
        closed = list(kept)
        true_keep(engine, degree, closed, [engine.cx.scale_vector(degree, z, v)
                                           for z in central for v, _ in kept])
        assert len(closed) == len(kept), degree


def test_audit_shortfall_is_witnessed():
    # without h the products reach only x0*h in degree 6: each short degree
    # leaves one line in the section's failures
    spec = theorem_spec(2, FieldSpec(3))
    spec.generators = [g for g in spec.generators if g[0] != "h"]
    spec.relations, spec.derived = [], []
    rep = verify(spec, context(2, 3).engine)
    # the audit is keyed by str(degree) in increasing degree
    short = [(int(d), got, want) for d, (got, want) in rep["audit"].items() if got != want]
    assert short[0] == (6, 1, 2)
    assert rep["failures"] == [f"audit degree {d}: spanned {got}, expected {want}"
                               for d, got, want in short]
    assert not rep["ok"]


def _generator_major_span_audit(spec, engine, audit_to=12):
    # the audit before it stopped at full rank: every product, generator by
    # generator, identified, and one elimination per degree picks the kept
    # ones
    F = engine.table.field
    ev = _Evaluator(engine, spec)
    n = spec.n
    pos_gens = [ev.gen_vectors[name] for name, d in spec.generators if d > 0]

    def keep(degree, kept, vectors):
        coords = [c for _, c in kept] + [engine.identify(v, degree).coords for v in vectors]
        dim = len(canonical_cocycles(engine.cx, degree).vectors)
        pivots = ExactMatrix.from_columns(F, dim, coords).echelonize().pivot_columns
        old = len(kept)
        kept.extend([(vectors[c - old], coords[c]) for c in pivots if c >= old])

    kept = {0: []}
    keep(0, kept[0], canonical_cocycles(engine.cx, 0).vectors)
    audit = {0: (len(kept[0]), 2 * n)}
    for i in range(1, audit_to + 1):
        kept[i] = []
        keep(i, kept[i], [engine.cup_vec(w, i - d, gvec, d)
                          for d, gvec in pos_gens if d <= i for w, _ in kept[i - d]])
        audit[i] = (len(kept[i]), n)
    return audit, kept


@pytest.mark.parametrize("n,char", [(n, c) for n in range(1, 7) for c in (0, 3, 5, 7)]
                         + [(7, 3), (7, 5)])
def test_capped_audit_matches_the_generator_major_audit(n, char, monkeypatch):
    # the audit that stops at full rank gives the same ranks and the same
    # kept spans as evaluating every product, and never keeps more vectors
    # than the canonical dimension
    import preproj_hh.presentation as P
    spec = theorem_spec(n, FieldSpec(char))
    engine = context(n, char).engine
    F = engine.table.field
    kept_by_degree = {}
    true_keep = P._keep_independent

    def recording_keep(engine, degree, kept, vectors):
        kept_by_degree[degree] = kept
        true_keep(engine, degree, kept, vectors)

    monkeypatch.setattr(P, "_keep_independent", recording_keep)
    audit = P._span_audit(spec, engine, _Evaluator(engine, spec))
    ref_audit, ref_kept = _generator_major_span_audit(spec, engine)
    assert audit == ref_audit
    assert sorted(kept_by_degree) == sorted(ref_kept)
    for degree, kept in kept_by_degree.items():
        dim = len(canonical_cocycles(engine.cx, degree).vectors)
        assert len(kept) == len(ref_kept[degree]) <= dim
        union = [c for _, c in kept] + [c for _, c in ref_kept[degree]]
        assert ExactMatrix.from_columns(F, dim, union).rank() == len(kept), degree


def test_audit_stops_evaluating_at_full_rank():
    # pinned at n=7 over F3: the audit evaluates 174 products, where the
    # generator-major audit evaluates all 1,267
    spec = theorem_spec(7, FieldSpec(3))
    engine = context(7, 3).engine
    before = engine.products
    audit = _span_audit(spec, engine, _Evaluator(engine, spec))
    assert all(got == want for got, want in audit.values())
    assert engine.products - before == 174
    before = engine.products
    assert _generator_major_span_audit(spec, engine)[0] == audit
    assert engine.products - before == 1267


def _ranking_keep(engine, degree, kept, vectors):
    # the audit's keep before supports decided it: every candidate ranked
    F = engine.table.field
    cap = len(canonical_cocycles(engine.cx, degree).vectors)
    coords = [c for _, c in kept]
    for v in vectors:
        if len(coords) >= cap:
            break
        c = engine.identify(v, degree).coords
        if ExactMatrix.from_columns(F, cap, coords + [c]).rank() > len(coords):
            kept.append((v, c))
            coords.append(c)


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_keeping_by_supports_keeps_what_ranking_keeps(n, char, monkeypatch):
    # every degree of the audit keeps the list that ranking every candidate
    # keeps, from the same candidates
    import preproj_hh.presentation as P
    spec = theorem_spec(n, FieldSpec(char))
    engine = context(n, char).engine
    true_keep = P._keep_independent
    degrees = []

    def compared_keep(engine, degree, kept, vectors):
        vectors = list(vectors)
        ref = list(kept)
        _ranking_keep(engine, degree, ref, vectors)
        true_keep(engine, degree, kept, vectors)
        assert kept == ref, degree
        degrees.append(degree)

    monkeypatch.setattr(P, "_keep_independent", compared_keep)
    P._span_audit(spec, engine, _Evaluator(engine, spec))
    assert degrees == list(range(13))


@pytest.mark.parametrize("char", [0, 3])
def test_a_candidate_on_kept_support_is_ranked(char):
    # {0: 2, 1: 2} meets no new index after {0: 1, 1: 1} and is dependent;
    # {0: 1} is dependent on two kept vectors; the empty class is never kept
    import preproj_hh.presentation as P
    cx = context(2, char).cx
    engine = SimpleNamespace(table=cx.table, cx=cx,
                             identify=lambda v, degree: SimpleNamespace(coords=v))
    candidates = [{}, {0: 1, 1: 1}, {0: 2, 1: 2}, {}, {1: 1}, {0: 1}, {2: 1}]
    kept, ref = [], []
    P._keep_independent(engine, 0, kept, candidates)
    _ranking_keep(engine, 0, ref, candidates)
    assert [v for v, _ in kept] == [v for v, _ in ref] == [{0: 1, 1: 1}, {1: 1}, {2: 1}]
