"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, check_gradients
from repro.autograd.function import unbroadcast
from repro.autograd.ops_activation import log_softmax, softmax
from repro.autograd.ops_sparse import spmm
from repro.hypergraph import Hypergraph, hypergraph_propagation_operator

_FINITE_FLOATS = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def small_arrays(max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=max_side),
        elements=_FINITE_FLOATS,
    )


@given(small_arrays())
@settings(max_examples=30, deadline=None)
def test_addition_is_commutative(data):
    a = Tensor(data)
    b = Tensor(data[::-1].copy().reshape(data.shape))
    assert np.allclose((a + b).data, (b + a).data)


@given(small_arrays())
@settings(max_examples=30, deadline=None)
def test_sum_matches_numpy(data):
    assert np.allclose(Tensor(data).sum().data, data.sum())


@given(small_arrays())
@settings(max_examples=30, deadline=None)
def test_mean_matches_numpy(data):
    assert np.allclose(Tensor(data).mean().data, data.mean())


@given(small_arrays())
@settings(max_examples=25, deadline=None)
def test_softmax_is_a_distribution(data):
    matrix = np.atleast_2d(data)
    out = softmax(Tensor(matrix), axis=-1).data
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@given(small_arrays())
@settings(max_examples=25, deadline=None)
def test_log_softmax_is_log_of_softmax(data):
    matrix = np.atleast_2d(data)
    assert np.allclose(
        log_softmax(Tensor(matrix), axis=-1).data,
        np.log(softmax(Tensor(matrix), axis=-1).data + 1e-300),
        atol=1e-8,
    )


@given(
    arrays(np.float64, shape=st.tuples(st.integers(2, 4), st.integers(2, 4)), elements=_FINITE_FLOATS)
)
@settings(max_examples=20, deadline=None)
def test_quadratic_gradient_matches_numerical(data):
    x = Tensor(data, requires_grad=True)
    check_gradients(lambda x: ((x * x) + 2.0 * x).sum(), [x], atol=1e-4, rtol=1e-3)


@given(
    arrays(np.float64, shape=st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=_FINITE_FLOATS),
    st.sampled_from([(1,), (3, 1), (1, 3), (3, 3)]),
)
@settings(max_examples=40, deadline=None)
def test_unbroadcast_restores_shape(grad_base, target_shape):
    try:
        broadcast = np.broadcast_to(np.zeros(target_shape), (3, 3))
    except ValueError:
        return
    grad = np.ones((3, 3))
    result = unbroadcast(grad, target_shape)
    assert result.shape == target_shape
    # The total mass is preserved by summation.
    assert np.isclose(result.sum(), grad.sum())
    del grad_base, broadcast


@given(small_arrays())
@settings(max_examples=30, deadline=None)
def test_backward_of_sum_is_ones(data):
    x = Tensor(data, requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones_like(data))


# --------------------------------------------------------------------------- #
# spmm: constant-operator backward (ops_sparse.py)
# --------------------------------------------------------------------------- #
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_spmm_gradient_against_cached_csr_operator(seed, d):
    """The backward rule must hold for a CSR operator reused across calls
    (spmm caches its transpose per operator object)."""
    rng = np.random.default_rng(seed)
    hypergraph = Hypergraph(
        6, [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5]], weights=rng.uniform(0.5, 2.0, 4)
    )
    operator = hypergraph_propagation_operator(hypergraph)
    assert sp.issparse(operator)
    x = Tensor(rng.normal(size=(6, d)), requires_grad=True)
    check_gradients(lambda t: (spmm(operator, t) * spmm(operator, t)).sum(), [x], atol=1e-4, rtol=1e-3)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_spmm_gradient_with_explicit_zero_rows(seed):
    """Isolated nodes give all-zero operator rows; their gradient is zero."""
    rng = np.random.default_rng(seed)
    # Nodes 4 and 5 belong to no hyperedge; without self-loops their operator
    # rows (and columns) are explicitly zero.
    hypergraph = Hypergraph(6, [[0, 1], [1, 2, 3]])
    operator = hypergraph_propagation_operator(hypergraph, self_loop_isolated=False)
    dense = operator.toarray()
    assert np.all(dense[4] == 0.0) and np.all(dense[5] == 0.0)

    x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    check_gradients(lambda t: (spmm(operator, t) * spmm(operator, t)).sum(), [x], atol=1e-4, rtol=1e-3)

    # The analytic gradient w.r.t. an isolated node's features is exactly zero
    # (its column of the symmetric operator is zero).
    x.zero_grad()
    (spmm(operator, x) * spmm(operator, x)).sum().backward()
    assert np.all(x.grad[4] == 0.0) and np.all(x.grad[5] == 0.0)
    assert np.any(x.grad[:4] != 0.0)
