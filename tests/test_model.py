"""Tangent-model plumbing: fibre pairings and the lift-universality witness."""

from random import Random

import pytest

from tancat import scalars
from tancat.cdc import PolyTangentModel, pair_into_t2, point_proj
from tancat.errors import PreconditionFailure
from tancat.suites import SuiteParams, tangent_axioms_checks
from tancat.poly import (
    constant_map,
    identity_map,
    polymap_compose,
    polymap_pair,
    polymap_proj,
    polymap_to_str,
)


def test_pair_into_t2_requires_shared_point():
    m = PolyTangentModel(scalars.RATIONAL)
    f = m.zero(1)
    # the zero vector over the point 1, not over x0
    g = polymap_compose(constant_map(1, [1], scalars.RATIONAL), m.zero(1))
    with pytest.raises(PreconditionFailure):
        pair_into_t2(1, f, g)
    paired = pair_into_t2(1, f, f)
    assert paired.cod == 3


def test_t_n_projections_share_base():
    m = PolyTangentModel(scalars.RATIONAL)
    for dim in (1, 2):
        for arity in (2, 3):
            tn = m.t_n(dim, arity)
            assert tn.carrier == (arity + 1) * dim
            p = point_proj(dim, scalars.RATIONAL)
            foots = {polymap_to_str(polymap_compose(pi, p)) for pi in tn.projections}
            assert len(foots) == 1


def test_lift_witness_inverse_pair():
    m = PolyTangentModel(scalars.RATIONAL)
    for dim in (1, 2, 3):
        w = m.lift_witness(dim)
        t2 = m.t_n(dim, 2)
        assert polymap_compose(w.kappa, w.rho) == identity_map(t2.carrier, scalars.RATIONAL)
        assert polymap_compose(w.rho, w.kappa) == identity_map(w.carrier, scalars.RATIONAL)


def test_random_mor_is_seed_stable():
    m = PolyTangentModel(scalars.NATURAL)
    a = m.random_mor(2, 2, Random(8), 3)
    b = m.random_mor(2, 2, Random(8), 3)
    assert a == b and a.dom == 2 and a.cod == 2


def test_model_rejects_unknown_mode():
    with pytest.raises(ValueError):
        PolyTangentModel("integer")


class FirstSummandModel(PolyTangentModel):
    """plus keeps the first tangent vector: (u1, u2, x) |-> (u1, x)."""

    def plus(self, m):
        u1, x = polymap_proj(3 * m, 0, m, self.mode), polymap_proj(3 * m, 2 * m, 3 * m, self.mode)
        return polymap_pair(u1, x)


def test_first_summand_plus_fails_left_unit_and_commutativity():
    rows = {
        c.name: c
        for c in tangent_axioms_checks(
            FirstSummandModel(scalars.RATIONAL), SuiteParams(max_dim=1, max_degree=1, instances=1, seed=0)
        )
        .report("tangent-axioms", {})
        .checks
        if c.name.startswith("plus-")
    }
    assert {name for name, c in rows.items() if c.status != "pass"} == {
        "plus-unit",
        "plus-commutative",
    }
    assert rows["plus-unit"].counterexample.startswith("dim 1, unit on the left; ")
