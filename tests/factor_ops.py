"""The operators of the check records, applied to a block (the identity by
default, which gives the dense matrix) through the same factor strings and
routes that the records use; the tests compare them with dense references.

Each operator is one side run as a record (`SideRecord`) through
`qkz.run_records`, so its factors are solved in one call and read by
name through the call's factor reader, as a check's are."""

from dataclasses import dataclass

import numpy as np

from qkzkit.qkz import (FactorCheck, Side, _two_site, lambda_factor_specs, lambda_forms,
                        regularized_product, rewritten_factors, run_records, transport_steps)
from qkzkit.reduction import chain_for, mirrored_args, rhs_steps


@dataclass(frozen=True, eq=False)
class SideRecord:
    """A record whose evaluation is one side applied to a block."""

    chain: object
    side: Side
    block: object = None

    def reads(self):
        return [(self.chain, [info for steps in self.side.strings for info in _two_site(steps)])]

    def evaluate(self, factor, probe=None):
        return self.side.apply(self.chain, factor, self.block)[0]


def applied(chain, steps, cache=None, block=None, check_invertible=True, route="apply_factors"):
    """A factor string applied to `block` by its route (qkz.apply_factors by default)."""
    side = Side((tuple(steps),), route, check_invertible)
    return run_records([SideRecord(chain, side, block)], cache)[0]


def read_factors(chain, infos, cache=None, check_invertible=True):
    """The Rchecks of the factors infos, read as a FactorCheck reads them."""
    check = FactorCheck(((chain, infos),),
                        lambda read, probe: [read(chain, info) for info in infos],
                        check_invertible)
    return run_records([check], cache)[0]


def lambda_op(chain, i, cache=None, block=None):
    """One-step qKZ operator for site i (its factor list through apply_factors)."""
    return applied(chain, lambda_factor_specs(chain, i), cache, block)


def lambda_rewritten(chain, i, cache=None, block=None):
    """The same operator from plain R factors, through the einsum route."""
    return applied(chain, rewritten_factors(chain, i), cache, block, route="einsum")


def lambda_forms_residual(chain, i, cache=None):
    """Relative residual between the two forms of Lambda_i on the probe block."""
    return lambda_forms(chain, [i], cache=cache).residual


def lambda_product_regularized(chain_a, i_a, chain_b, i_b, cache=None, block=None):
    """Lambda_a(chain_a) Lambda_b(chain_b), the junction pair cancelled."""
    return applied(chain_b, regularized_product(chain_a, i_a, chain_b, i_b), cache, block)


def rhs_operator(case, zetas, cache=None, insertion=None, block=None):
    """The reduction composite, its singular factors kept in the product."""
    return applied(chain_for(case, mirrored_args(case, zetas)),
                   rhs_steps(case, zetas, insertion), cache, block, check_invertible=False)


def transport_phi(chain, tensor, word, cache=None):
    """(tensor transported along the word, the order it ends in)."""
    steps, order = transport_steps(chain, word)
    vec = applied(chain, steps, cache, np.asarray(tensor, dtype=complex).reshape(-1, 1))
    return vec.reshape(chain.dims), order
