"""Nakayama bilinear form of the canonical basis, dual basis, dualizability.

The form is (x, y) = sum over vertices of the coefficient of w_i in x*y.
Its gram matrix on the basis is read off the grading, one product per row:
only the monomial of e_t(b) L_(top - deg b) e_s(b) can pair with b (see the
note at `associated_form`).  On the canonical basis the gram matrix has
exactly one nonzero entry per row, the partner map is an involution, and
the matrix is symmetric; `certify_dualizable` checks the three equivalent
conditions of the dualizable-basis criterion independently and returns
the certificate's dualizability section, with a witness for each failure.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List

from .algebra import AlgebraTable, elem_eq, multiply
from .exactla import sparse_rank


class DegenerateFormError(RuntimeError):
    pass


class NakayamaForm(namedtuple("NakayamaForm", "table gram dual")):
    """The form of `table`: `gram` maps mid -> {mid: scalar}, sparse rows,
    and `dual` mid -> (scalar, mid), with b* = scalar * partner."""

    __slots__ = ()

    def pair(self, x: dict, y: dict):
        """Evaluate the form on two algebra elements."""
        t, F = self.table, self.table.field
        prod = multiply(t, x, y)
        s = F.zero
        for i in t.quiver.vertices:
            s = F.add(s, prod.get(t.socle_ids[i], F.zero))
        return s

    def dual_element(self, mid: int) -> dict:
        s, m = self.dual[mid]
        return {m: s}

    def serialize(self) -> dict:
        return {"dual": [[mid, str(s), m] for mid, (s, m) in sorted(self.dual.items())]}


# Soundness of the graded gram walk.  Every nonzero product
# m1 * m2 = c * m3 (`mono_mul`) has m3 in e_s(m1) L_(deg m1 + deg m2) e_t(m2):
# the product is homogeneous and keeps the outer vertices.  The socle element
# w_i spans e_i L_top e_i, top = 2n - 1, so b * c reaches the socle only if
# c runs from t(b) to s(b) in degree top - deg b.  That graded piece is at
# most one-dimensional, so `by_ijd` names the one candidate partner of b,
# and every other entry of row b is zero.  So the rows assembled this way
# are those of a walk over all of B x B, one `mono_mul` per row, and the
# structural check and the rank fallback below judge them as they stand.
# tests/test_algebra.py checks the premise on every nonzero product.
def associated_form(t: AlgebraTable) -> NakayamaForm:
    """Assemble the gram matrix on B x B and extract the dual basis.

    Each row is read off the one product that can reach the socle (see the
    note above).  Nondegeneracy is certified structurally: every row must
    carry exactly one nonzero entry and the partner assignment must be a
    bijection.  If that structure ever failed, the fallback is an honest
    rank computation.
    """
    F = t.field
    top = t.top_degree
    socle = set(t.socle_ids.values())
    gram: dict = {}
    for m in t.basis:
        row = {}
        c = t.by_ijd.get((m.target, m.source, top - m.degree))
        if c is not None:
            hit = t.mono_mul(m.mid, c)
            if hit is not None and hit[1] in socle:
                row[c] = F(hit[0])
        gram[m.mid] = row

    partner = {}
    structural = all(len(row) == 1 for row in gram.values())
    if structural:
        for b, row in gram.items():
            partner[b] = next(iter(row))
        structural = sorted(partner.values()) == list(range(t.dim))
    if not structural:
        if sparse_rank(gram.values(), F) < t.dim:
            raise DegenerateFormError("gram matrix is singular")
        raise DegenerateFormError("gram matrix nondegenerate but not monomial")

    dual = {b: (F.inv(gram[b][c]), c) for b, c in partner.items()}
    return NakayamaForm(table=t, gram=gram, dual=dual)


def certify_dualizable(f: NakayamaForm) -> dict:
    """Check the three equivalent dualizability conditions independently.

    Returns the certificate's dualizability section: a* a = w_t(a) for every
    arrow, b** = b for every basis element, a symmetric gram matrix, and a
    witness for each failure.  It holds no "ok": every condition set False
    below appends a witness and nothing else appends one, so the section
    passes exactly when its witnesses are empty.
    """
    t, F = f.table, f.table.field
    witnesses: List[str] = []

    arrow_ok = True
    for a in t.quiver.arrows:
        amid = t.arrow_ids[a.index]
        lhs = multiply(t, f.dual_element(amid), t.monomial_element(amid))
        rhs = t.monomial_element(t.socle_ids[a.target])
        if not elem_eq(lhs, rhs):
            arrow_ok = False
            witnesses.append(f"{a.name}* {a.name} = {_show(t, lhs)} != w_{a.target}")

    double_ok = True
    for b in range(t.dim):
        s, m = f.dual[b]
        sm, mm = f.dual[m]
        # (s*m)* = (1/s) m*, so b** = (sm/s) mm
        coeff = F.mul(F.inv(s), sm)
        if mm != b or coeff != F.one:
            double_ok = False
            witnesses.append(f"b**  !=  b for monomial {b}")

    sym_ok = True
    for b, row in f.gram.items():
        for c, v in row.items():
            if f.gram[c].get(b, F.zero) != v:
                sym_ok = False
                witnesses.append(f"({b},{c}) asymmetric")
                break
        if not sym_ok:
            break

    return {"arrow_condition": arrow_ok, "double_dual_condition": double_ok,
            "symmetry_condition": sym_ok, "witnesses": witnesses}


def _show(t: AlgebraTable, x: dict) -> str:
    if not x:
        return "0"
    parts = []
    for mid, c in sorted(x.items()):
        m = t.basis[mid]
        path = ".".join(t.quiver.arrows[a].name for a in m.path) or f"e{m.source}"
        parts.append(f"{c}*{path}")
    return " + ".join(parts)
