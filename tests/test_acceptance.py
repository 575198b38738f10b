"""Acceptance gate: every quantitative claim, at its stated tolerance.

All arithmetic is exact, so every tolerance is zero; the only stated
budgets are wall-clock ones, asserted where the criteria name them.  Each
test prints one PASS/FAIL line (run with -s to see them on success).
"""

import time

from preproj_hh.algebra import build_algebra, cartan_matrix
from preproj_hh.cochain import (canonical_cocycles, cyclic_dims, hh_dims,
                                homology_dims)
from preproj_hh.exactla import ExactMatrix, FieldSpec
from preproj_hh.nakayama import associated_form, certify_dualizable
from preproj_hh.oracle import bar_dims, compare
from preproj_hh.presentation import theorem_spec, verify
from preproj_hh.resolution import certify_exact
from preproj_hh.yoneda import (c_matrix, closed_form_c_matrix,
                               combinatorial_c_matrix, stable_structure_check)
from conftest import context, perturb_d2, variant_socle_table

GRID_N = range(1, 7)
GRID_CHARS = (0, 3, 5, 7)


def _report(number, name, ok):
    print(f"ACCEPTANCE {number:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_dimensions_thm_4_4():
    start = time.perf_counter()
    ok = True
    for n in GRID_N:
        for char in GRID_CHARS:
            dims = hh_dims(context(n, char).cx, 12)
            ok = ok and dims[0] == 2 * n and dims[1:] == [n] * 12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    print(f"   [grid runtime {elapsed:.1f}s]")
    _report(1, "cohomology dimensions on the full grid", ok)


def test_02_homology_duality():
    ok = True
    for n in GRID_N:
        for char in GRID_CHARS:
            cx = context(n, char).cx
            ok = ok and homology_dims(cx, 12) == hh_dims(cx, 12)
    _report(2, "homology dimensions equal cohomology dimensions", ok)


def test_03_cartan_determinant():
    ok = all(cartan_matrix(context(n).table)[1] == 2 ** n for n in GRID_N)
    _report(3, "Cartan determinant 2^n", ok)


def test_04_algebra_sanity():
    ok = True
    for n in GRID_N:
        t = context(n).table
        ok = ok and t.dim == n * (n + 1) * (2 * n + 1) // 3
        keys = {(m.source, m.target, m.degree) for m in t.basis}
        ok = ok and len(keys) == t.dim
    for n in range(1, 5):
        t = context(n).table
        for m1 in range(t.dim):
            for m2 in range(t.dim):
                left = t.mono_mul(m1, m2)
                for m3 in range(t.dim):
                    a = None
                    if left is not None:
                        h = t.mono_mul(left[1], m3)
                        if h is not None:
                            a = (left[0] * h[0], h[1])
                    right = t.mono_mul(m2, m3)
                    b = None
                    if right is not None:
                        h = t.mono_mul(m1, right[1])
                        if h is not None:
                            b = (right[0] * h[0], h[1])
                    if a != b:
                        ok = False
    ok = ok and _cor32_identities_hold()
    _report(4, "algebra sanity: dimension, associativity, identities", ok)


def _cor32_identities_hold():
    from preproj_hh.algebra import elem_eq, elem_scale, multiply

    for n in GRID_N:
        t = context(n).table

        def chain(arrows):
            out = t.unit()
            for a in arrows:
                out = multiply(t, out, t.monomial_element(t.arrow_ids[a]))
            return out

        eps2 = chain([0, 0])
        a_idx = {i: 2 * i - 1 for i in range(1, n)}
        ab_idx = {i: 2 * i for i in range(1, n)}
        for i in t.quiver.vertices:
            for j in t.quiver.vertices:
                got = sorted(m.degree for m in t.basis
                             if m.source == i and m.target == j)
                lo, hi = min(i, j), max(i, j)
                wanted = sorted(
                    list(range(hi - lo, 2 * n - (i + j) + 1, 2))
                    + list(range(i + j - 1, i + j + 2 * (n - hi), 2)))
                if got != wanted:
                    return False
        for j in range(2, n + 1):
            lhs = chain([a_idx[i] for i in range(1, j)]
                        + [ab_idx[i] for i in range(j - 1, 0, -1)])
            rhs = t.unit()
            for _ in range(j - 1):
                rhs = multiply(t, rhs, eps2)
            if not elem_eq(lhs, elem_scale(t, (-1) ** (j * (j - 1) // 2), rhs)):
                return False
            lhs = chain([a_idx[i] for i in range(1, j)] + [ab_idx[j - 1]])
            rhs = multiply(t, eps2, chain([a_idx[i] for i in range(1, j - 1)]))
            if not elem_eq(lhs, elem_scale(t, (-1) ** (j - 1), rhs)):
                return False
        for i in range(1, n):
            for j in range(i, n):
                lhs = chain([ab_idx[i]] + [a_idx[k] for k in range(i, j + 1)])
                if j + 1 <= n - 1:
                    rhs = chain([a_idx[k] for k in range(i + 1, j + 2)]
                                + [ab_idx[j + 1]])
                else:
                    rhs = {}
                if not elem_eq(lhs, elem_scale(t, (-1) ** (j - i + 1), rhs)):
                    return False
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(0, n + 1):
                    elem = chain([ab_idx[r] for r in range(i - 1, 0, -1)]
                                 + [0] * (2 * k)
                                 + [a_idx[r] for r in range(1, j)])
                    if elem and not k <= n - i - j + 1:
                        return False
    return True


def test_05_dualizability():
    ok = True
    for n in GRID_N:
        ok = ok and not certify_dualizable(context(n).form)["witnesses"]
    for n in range(2, 7):
        report = certify_dualizable(associated_form(variant_socle_table(n)))
        ok = ok and bool(report["witnesses"]) and not report["arrow_condition"]
    _report(5, "canonical basis dualizable, unsigned variant fails", ok)


def test_06_resolution_exactness_and_dual_coincidence():
    ok = True
    for n in GRID_N:
        for char in (0, 3):
            ctx = context(n, char)
            rep, _ = certify_exact(ctx.window)
            ok = ok and rep["ok"] and rep["depth"] == 13
            cx = ctx.cx
            for i in range(cx.maxdeg):
                explicit = cx._explicit_matrix(i)
                dual = cx._dual_matrix(i)
                ok = ok and explicit == dual
    _report(6, "resolution exact through depth 13, dual matches formulas", ok)


def test_07_c_matrix():
    ok = True
    for n in GRID_N:
        ctx = context(n)
        cm = c_matrix(ctx.table, ctx.engine)  # three routes compared inside
        ok = ok and cm["rank"] == n
        ok = ok and abs(cm["det"]) == (2 * n + 1) ** (n - 1)
        ok = ok and cm["adjacency_identity"]
    for n, p in [(1, 3), (2, 5), (3, 7), (7, 3), (7, 5)]:
        table = build_algebra(n, FieldSpec(p))
        comb = combinatorial_c_matrix(table)
        ok = ok and comb == closed_form_c_matrix(n)
        ok = ok and ExactMatrix(FieldSpec(p), comb).rank() == 1
    _report(7, "C matrix: three computations, rank dichotomy, adjacency", ok)


def test_08_product_lemmas():
    ok = True
    for n, char in [(1, 0), (2, 0), (3, 0), (4, 0), (3, 7)]:
        ok = ok and not _product_lemma_failures(n, char)
    _report(8, "product lemmas on the Yoneda engine", ok)


def _product_lemma_failures(n, char):
    ctx = context(n, char)
    eng = ctx.engine
    F = ctx.table.field
    table = eng.product_table()
    failures = []

    def expect(key, label, coeff):
        cls = table[key]
        items = cls.nonzero_items()
        want = [(label, F(coeff))] if F(coeff) != 0 else []
        if items != want:
            failures.append((key, str(cls)))

    top = "" if n == 1 else ("x0" if n == 2 else f"x0^{n - 1}")
    prefix = f"{top}*" if top else ""
    if not table[("y", "y")].is_zero():
        failures.append("y*y")
    expect(("gamma", "gamma"), "z1*h", 1)
    for j in range(1, n + 1):
        expect((f"z{j}", "gamma"), f"{prefix}h", (-1) ** j * (n - j + 1))
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            expect((f"z{k}", f"t{j}"), f"{prefix}y.gamma", 1 if j == k else 0)
        expect((f"t{j}", "gamma"), f"{prefix}y*h", 1 if j == 1 else 0)
        if not (table[(f"t{j}", "y")].is_zero()
                and table[("y", f"t{j}")].is_zero()):
            failures.append("t*y")
        for k in range(1, n + 1):
            if not table[(f"t{j}", f"t{k}")].is_zero():
                failures.append("t*t")
        # degree-3 against the degree-5 generators x0^k y gamma vanishes too
        for kpow in range(n):
            v5 = canonical_cocycles(eng.cx, 5).vectors[kpow]
            d, tv = eng.generator_vector(f"t{j}")
            if not eng.identify(eng.cup_vec(tv, d, v5, 5), 8).is_zero():
                failures.append("t*(x0^k y gamma)")
    return failures


THM11_PAIRS = [(n, ch) for n in range(1, 5) for ch in (0, 3, 5)
               if ch == 0 or (2 * n + 1) % ch != 0]
THM12_PAIRS = [(2, 5), (3, 7), (7, 3)]


def test_09_presentations():
    ok = True
    for n, ch in THM11_PAIRS:
        rep = verify(theorem_spec(n, FieldSpec(ch)), context(n, ch).engine)
        ok = ok and rep["ok"] and rep["regime"] == "generic"
    start = time.perf_counter()
    for n, ch in THM12_PAIRS:
        rep = verify(theorem_spec(n, FieldSpec(ch)), context(n, ch).engine)
        ok = ok and rep["ok"] and rep["regime"] == "modular"
        if n == 7:
            ok = ok and (time.perf_counter() - start) < 600
    _report(9, "ring presentations in both regimes, audit through 12", ok)


def test_10_stable_ring():
    ok = True
    for n, ch in THM11_PAIRS + THM12_PAIRS:
        rep = stable_structure_check(context(n, ch).engine)
        ok = ok and rep["ok"]
    _report(10, "h-multiplication bijective, degree-0 kernel is the socle", ok)


def test_11_oracle(monkeypatch):
    start = time.perf_counter()
    dims1 = bar_dims(context(1).table, 6)
    t1 = time.perf_counter() - start
    ok = dims1 == hh_dims(context(1).cx, 6) and t1 < 5
    start = time.perf_counter()
    rep, _ = compare(context(2).table, hh_dims(context(2).cx, 3), 3)
    t2 = time.perf_counter() - start
    ok = ok and rep["ok"] and t2 < 60
    clean = bar_dims(context(1).table, 4)
    perturb_d2(monkeypatch)
    ok = ok and bar_dims(context(1).table, 4) != clean
    print(f"   [n=1 through 6: {t1:.2f}s, n=2 through 3: {t2:.2f}s]")
    _report(11, "bar-complex oracle agrees; perturbation detected", ok)


def test_12_cyclic_homology():
    ok = True
    for n in GRID_N:
        cx = context(n).cx
        hc, b = cyclic_dims(cx, homology_dims(cx, 10))
        ok = ok and hc == [2 * n if i % 2 == 0 else 0 for i in range(11)]
        ok = ok and b == [n if i % 2 == 0 else 0 for i in range(11)]
    _report(12, "cyclic homology dimensions and Connes images", ok)


def test_13_determinism():
    from preproj_hh.cli import certificate_bytes, compute_certificate
    a = compute_certificate(2, 3)
    b = compute_certificate(2, 3)
    ok = a["body"] == b["body"]
    ba = certificate_bytes(a).split(b"\n", 2)[2]
    bb = certificate_bytes(b).split(b"\n", 2)[2]
    ok = ok and ba == bb
    _report(13, "byte-identical certificates outside the header", ok)
