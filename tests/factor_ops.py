"""The operators of the check records, applied to a block (the identity by
default, which gives the dense matrix) through the same factor strings and
routes that the records use; the tests compare them with dense references."""

import numpy as np

from qkzkit.qkz import (apply_factors, lambda_factor_specs, lambda_forms,
                        regularized_product, rewritten_factors, transport_steps)
from qkzkit.reduction import chain_for, mirrored_args, rhs_steps


def lambda_op(chain, i, cache=None, block=None):
    """One-step qKZ operator for site i (its factor list through apply_factors)."""
    return apply_factors(chain, lambda_factor_specs(chain, i), cache, block)


def lambda_rewritten(chain, i, cache=None, block=None):
    """The same operator from plain R factors, through the einsum route."""
    return apply_factors(chain, rewritten_factors(chain, i), cache, block, einsum=True)


def lambda_forms_residual(chain, i, cache=None):
    """Relative residual between the two forms of Lambda_i on the probe block."""
    return lambda_forms(chain, [i], cache=cache).residual


def lambda_product_regularized(chain_a, i_a, chain_b, i_b, cache=None, block=None):
    """Lambda_a(chain_a) Lambda_b(chain_b), the junction pair cancelled."""
    return apply_factors(chain_b, regularized_product(chain_a, i_a, chain_b, i_b), cache, block)


def rhs_operator(case, zetas, cache=None, insertion=None, block=None):
    """The reduction composite, its singular factors kept in the product."""
    return apply_factors(chain_for(case, mirrored_args(case, zetas)),
                         rhs_steps(case, zetas, insertion), cache, block, check_invertible=False)


def transport_phi(chain, tensor, word, cache=None):
    """(tensor transported along the word, the order it ends in)."""
    steps, order = transport_steps(chain, word)
    vec = apply_factors(chain, steps, cache, np.asarray(tensor, dtype=complex).reshape(-1, 1))
    return vec.reshape(chain.dims), order
