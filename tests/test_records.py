"""The plain records are named tuples: read-only through their type."""

import pytest

from conftest import context
from preproj_hh.cli import RunConfig
from preproj_hh.cochain import canonical_cocycles
from preproj_hh.exactla import ExactMatrix
from preproj_hh.presentation import theorem_spec
from preproj_hh.yoneda import CohomologyClass


def _gamma(ctx):
    """The cocycle of the generator gamma and its degree."""
    degree, vec = ctx.engine.generator_vector("gamma")
    return vec, degree


_RECORDS = {
    "Arrow": lambda ctx: ctx.table.quiver.arrows[1],
    "EchelonForm": lambda ctx: ExactMatrix(ctx.field, [[1, 2], [2, 4]]).echelonize(),
    "Relation": lambda ctx: theorem_spec(ctx.n, ctx.field).relations[0],
    "ProjectiveBimodule": lambda ctx: ctx.window.terms[1],
    "RunConfig": lambda ctx: RunConfig([ctx.n], [0]),
    "CochainSpace": lambda ctx: ctx.cx.spaces[1],
    "CanonicalBasis": lambda ctx: canonical_cocycles(ctx.cx, 1),
    "NakayamaForm": lambda ctx: ctx.form,
    "CohomologyClass": lambda ctx: ctx.engine.identify(*_gamma(ctx)),
    "ChainMapSegment": lambda ctx: ctx.engine.lift(*_gamma(ctx), 2),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_a_record_can_neither_be_reassigned_nor_extended(name):
    record = _RECORDS[name](context(2))
    assert type(record).__name__ == name
    values = tuple(record)
    for field, value in zip(record._fields, values):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert all(a is b for a, b in zip(record, values)) and not hasattr(record, "extra")


def test_a_cohomology_class_is_equal_by_value_and_unhashable():
    a = CohomologyClass(2, {0: 1}, ("x", "y"))
    assert a == CohomologyClass(2, {0: 1}, ("x", "y")) != CohomologyClass(2, {1: 1}, ("x", "y"))
    with pytest.raises(TypeError):
        hash(a)
