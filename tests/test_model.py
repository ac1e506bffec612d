"""Tangent-model plumbing: fibre pairings and the lift-universality witness."""

from dataclasses import replace
from random import Random

import pytest

from tancat import model as model_module
from tancat import scalars
from tancat.cdc import PolyTangentModel, pair_into_t2, point_proj
from tancat.errors import PreconditionFailure
from tancat.fibration import FibreTangentModel
from tancat.model import vertical_lift_v
from tancat.suites import SuiteParams, tangent_axioms_checks
from tancat.poly import (
    constant_map,
    coordinate_map,
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


def test_lift_witness_comparison_is_identity():
    # R lies on T_2's coordinates, so kappa = v;sel is the identity, in every model
    models = [PolyTangentModel(mode) for mode in scalars.MODES]
    models += [FibreTangentModel(context) for context in (0, 1, 2)]
    for model in models:
        for dim in (1, 2, 3):
            w = model.lift_witness(dim)
            kappa = model.compose(vertical_lift_v(model, dim), w.sel)
            assert kappa == model.identity(model.t_n(dim, 2).carrier)


class SwappedSelModel(PolyTangentModel):
    """sel reads R's two tangent blocks in the wrong order: (du, dx, u, x) |-> (u, du, x)."""

    def lift_witness(self, m):
        sel = coordinate_map(4 * m, (*range(2 * m, 3 * m), *range(m), *range(3 * m, 4 * m)), self.mode)
        return replace(super().lift_witness(m), sel=sel)


class MisplacedLegModel(PolyTangentModel):
    """The leg R -> T^2 puts beta in the dx block: (alpha, beta, x) |-> (alpha, beta, 0, x)."""

    def lift_witness(self, m):
        leg = coordinate_map(3 * m, (*range(2 * m), *(None,) * m, *range(2 * m, 3 * m)), self.mode)
        return replace(super().lift_witness(m), into_tangent=leg)


@pytest.mark.parametrize(
    "model, failing",
    [
        (SwappedSelModel, {"lift-witness-inverse", "lift-witness-tangent", "lift-witness-cone"}),
        (MisplacedLegModel, {"lift-witness-cone"}),
    ],
)
@pytest.mark.parametrize("mode", scalars.MODES)
def test_broken_witness_fails_only_its_witness_rows(model, failing, mode):
    params = SuiteParams(max_dim=2, max_degree=2, instances=3, seed=0, mode=mode)
    rows = tangent_axioms_checks(model(mode), params).checks
    assert {c.name for c in rows if c.status != "pass"} == failing
    assert all(c.counterexample for c in rows if c.status != "pass")


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


def test_the_lift_comparison_is_built_once_per_dimension(monkeypatch):
    dims = []
    real = model_module.vertical_lift_v

    def counted(model, m):
        dims.append(m)
        return real(model, m)

    monkeypatch.setattr(model_module, "vertical_lift_v", counted)
    for model in (PolyTangentModel(scalars.RATIONAL), FibreTangentModel(1)):
        dims.clear()
        checks = tangent_axioms_checks(model, SuiteParams(max_dim=3, max_degree=1, instances=1, seed=0))
        assert checks.all_passed
        assert dims == [1, 2, 3]


class RefusedPairingModel(PolyTangentModel):
    """<f, g> into T(T_2) is always refused, so v cannot be built."""

    def pair_t_t2(self, m, f, g):
        raise PreconditionFailure("no pairing")


def test_a_lift_comparison_that_raises_fills_both_lift_rows():
    rows = {
        c.name: c
        for c in tangent_axioms_checks(
            RefusedPairingModel(scalars.RATIONAL), SuiteParams(max_dim=2, max_degree=1, instances=1, seed=0)
        ).checks
    }
    failing = {name for name, c in rows.items() if c.status != "pass"}
    assert failing == {"ell-additive", "lift-v-projection", "lift-witness"}
    for name in failing:
        assert rows[name].status == "error"
        assert rows[name].counterexample == "PreconditionFailure: no pairing"
    assert not any(name.startswith(("lift-v-point", "lift-witness-")) for name in rows)
