"""The tangent-model contract, and the constructions generic over it.

A tangent model supplies an endofunctor T together with the structural
morphisms p (projection), 0 (zero section), + (fibrewise addition on the
pullback square T_2), ell (vertical lift) and flip (canonical symmetry),
plus enough categorical plumbing (composition, pairing into the fibred
carriers, random morphism generation) for the axiom suites to be written
once and run against any model.

Objects are model-specific; both concrete models here use plain ints
(dimensions).  Nothing in this module assumes morphisms are PolyMaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TnObject:
    """The n-wide pullback power of p over an object, with its projections."""

    base: object
    arity: int
    carrier: object
    projections: Tuple[object, ...]


@dataclass(frozen=True)
class LiftWitness:
    """Certificate data for the universality of the vertical lift.

    ``carrier`` realizes the canonical pullback of T(p) along 0 concretely;
    ``into_tangent`` and ``into_base`` are its cone legs.  ``kappa`` is the
    comparison map out of T_2, and ``rho`` its claimed two-sided inverse.
    The suites check kappa;rho = 1, rho;kappa = 1 and the cone equations;
    nothing here is assumed.
    """

    carrier: object
    kappa: object
    rho: object
    into_tangent: object
    into_base: object


class TangentModel:
    """Capability record for one tangent model.  All methods are pure."""

    mode: str

    # -- object and morphism actions of T ----------------------------------
    def t_obj(self, x):
        raise NotImplementedError

    def t_mor(self, f):
        raise NotImplementedError

    # -- structural morphisms at an object ----------------------------------
    def p(self, x):
        raise NotImplementedError

    def zero(self, x):
        raise NotImplementedError

    def plus(self, x):
        raise NotImplementedError

    def ell(self, x):
        raise NotImplementedError

    def flip(self, x):
        raise NotImplementedError

    # -- pullback powers and pairings into them ------------------------------
    def t_n(self, x, n: int) -> TnObject:
        raise NotImplementedError

    def pair_t2(self, x, f, g):
        """<f, g> into the fibred square of p at x; requires f;p = g;p."""
        raise NotImplementedError

    def pair_t_t2(self, x, f, g):
        """<f, g> into T(T_2(x)); requires f;T(p) = g;T(p)."""
        raise NotImplementedError

    # -- plumbing -----------------------------------------------------------
    def compose(self, f, g):
        raise NotImplementedError

    def identity(self, x):
        raise NotImplementedError

    def random_mor(self, x, y, rng, max_degree: int = 3, coeff_bound: int = 5):
        raise NotImplementedError

    def lift_witness(self, x) -> LiftWitness:
        raise NotImplementedError


def vertical_lift_v(model: TangentModel, m):
    """The comparison map v := <pi0 ell, pi1 0_T> T(+) : T_2(M) -> T^2(M)."""
    t2 = model.t_n(m, 2)
    left = model.compose(t2.projections[0], model.ell(m))
    right = model.compose(t2.projections[1], model.zero(model.t_obj(m)))
    paired = model.pair_t_t2(m, left, right)
    return model.compose(paired, model.t_mor(model.plus(m)))


def monad_mult(model: TangentModel, m):
    """mu := <p_T, T(p)> + : T^2(M) -> T(M), the multiplication of (T, 0, mu)."""
    paired = model.pair_t2(m, model.p(model.t_obj(m)), model.t_mor(model.p(m)))
    return model.compose(paired, model.plus(m))
