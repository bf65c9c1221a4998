from fractions import Fraction

import numpy as np
import pytest

from mechlearn import (
    DiscreteMarginal,
    GridSpec,
    MechanismTable,
    ProductPrior,
    ProfileDomain,
    ValuationModel,
    enumerate_multi_item,
)
from mechlearn.mechanism import type_axis_first


def marginal(spec: GridSpec, mass: dict) -> DiscreteMarginal:
    return DiscreteMarginal(spec, {k: Fraction(v) for k, v in mass.items()})


def product_prior(spec: GridSpec, cells) -> ProductPrior:
    """cells: n x m nested list of {index: prob} dicts."""
    margs = tuple(tuple(marginal(spec, c) for c in row) for row in cells)
    return ProductPrior(n=len(cells), m=len(cells[0]), marginals=margs)


def posted_price_table(spec: GridSpec, price: float, m: int = 1) -> MechanismTable:
    """Single bidder, additive items, take-it-or-leave-it bundle at `price`:
    the bidder buys everything iff her total grid value covers the price."""
    space = enumerate_multi_item(1, m)
    domain = ProfileDomain.full_grid(spec, 1, m)
    bundle = space.num_outcomes - 1  # all items assigned to the bidder
    r = domain.num_profiles
    probs = np.zeros((r, space.num_outcomes))
    payments = np.zeros((r, 1))
    for rank, profile in enumerate(domain.profiles()):
        total = sum(spec.value(k) for k in profile[0])
        if total >= price:
            probs[rank, bundle] = 1.0
            payments[rank, 0] = price
        else:
            probs[rank, 0] = 1.0
    return MechanismTable(domain=domain, space=space, probs=probs, payments=payments)


def axis_views(mech: MechanismTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lottery and payment tensors with bidder k's type axis first: probs as
    (T_k, R_rest, K) and bidder k's payments as (T_k, R_rest), by
    ``type_axis_first`` of the table's dense gathers."""
    return (
        type_axis_first(mech.domain, k, mech.probs),
        type_axis_first(mech.domain, k, mech.payments[:, k]),
    )


@pytest.fixture
def additive() -> ValuationModel:
    return ValuationModel(tag="additive")


@pytest.fixture
def quarter_grid() -> GridSpec:
    return GridSpec(epsilon=0.25, h=2.0)
