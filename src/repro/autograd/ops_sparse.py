"""Sparse-times-dense products for propagation operators.

Graph and hypergraph convolutions repeatedly multiply a fixed propagation
operator (normalised adjacency ``Â`` or hypergraph operator
``Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2``) with a dense, differentiable feature matrix.
The operator itself is structural data, not a parameter, so :func:`spmm`
treats it as a constant and back-propagates through the dense operand only:

    Y = S X        =>        dL/dX = Sᵀ dL/dY

Two hot-path details:

* the operator is normalised to CSR once at call time, so every forward is a
  CSR matvec rather than an implicit format conversion per step;
* the backward rule needs ``Sᵀ`` in CSR form, and materialising that
  transpose costs as much as the product itself.  Since the *same* operator
  object is reused across training steps (a model keeps its operators
  between topology refreshes), the transpose is memoised per operator
  object in :data:`_TRANSPOSE_CACHE` and only rebuilt when the operator
  actually changes.
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.autograd.function import Context, Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError
from repro.precision import resolve_dtype

#: Cap on memoised transposes; one slot per live operator is plenty (a
#: model holds a static operator plus one dynamic operator per layer).
_MAX_TRANSPOSE_ENTRIES = 256

#: id(operator) -> (weakref to the operator, its materialised transpose).
#: The weakref both invalidates the entry when the operator is collected and
#: guards against id() reuse by a new object at the same address.
_TRANSPOSE_CACHE: dict[int, tuple[weakref.ref, Any]] = {}


def _freeze(operator: Any) -> None:
    """Mark the sparse operator's arrays read-only.

    The memoised transpose is keyed by object identity, which cannot detect
    in-place mutation of the values; freezing turns what would be silently
    stale gradients into an immediate ``ValueError`` at the mutation site.
    (Propagation operators are constants to the autograd layer — the
    refresh-engine cache documents the same contract.)
    """
    for attribute in ("data", "indices", "indptr"):
        array = getattr(operator, attribute, None)
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


def _transposed(operator: Any) -> Any:
    """``operator.T`` as CSR, memoised per (frozen) sparse operator object.

    Dense operators never come through here: ``ndarray.T`` is a free view
    and matmul handles it directly, so they are neither cached nor frozen.
    """
    key = id(operator)
    entry = _TRANSPOSE_CACHE.get(key)
    if entry is not None and entry[0]() is operator:
        return entry[1]
    transposed = operator.T.tocsr()
    try:
        ref = weakref.ref(operator, lambda _ref, _key=key: _TRANSPOSE_CACHE.pop(_key, None))
    except TypeError:  # pragma: no cover - operator type without weakref support
        return transposed
    _freeze(operator)
    if len(_TRANSPOSE_CACHE) >= _MAX_TRANSPOSE_ENTRIES:
        # Evict one (oldest-inserted) entry; clearing wholesale would force
        # every live operator to re-materialise its transpose at once.
        _TRANSPOSE_CACHE.pop(next(iter(_TRANSPOSE_CACHE)), None)
    _TRANSPOSE_CACHE[key] = (ref, transposed)
    return transposed


class SparseMatMul(Function):
    @staticmethod
    def forward(ctx: Context, x: np.ndarray, operator: Any) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"spmm expects a 2-D dense operand, got shape {x.shape}")
        if operator.shape[1] != x.shape[0]:
            raise ShapeError(
                f"operator shape {operator.shape} incompatible with features {x.shape}"
            )
        ctx.extras["operator"] = operator
        result = operator @ x
        if sp.issparse(result):
            result = result.toarray()
        return np.asarray(result, dtype=x.dtype)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        operator = ctx.extras["operator"]
        if sp.issparse(operator):
            grad_x = _transposed(operator) @ grad
            if sp.issparse(grad_x):
                grad_x = grad_x.toarray()
        else:
            grad_x = operator.T @ grad
        return (np.asarray(grad_x, dtype=grad.dtype), None)


def spmm(operator: Any, x: Any) -> Tensor:
    """Multiply a constant (sparse or dense) ``operator`` with tensor ``x``.

    Parameters
    ----------
    operator:
        ``(m, n)`` scipy sparse matrix or numpy array.  Treated as a constant:
        no gradient is computed for it.  Sparse operators are normalised to
        CSR here, once, so the repeated products stay format-conversion free.
    x:
        ``(n, d)`` dense :class:`Tensor` (or array) carrying gradients.

    Returns
    -------
    Tensor
        ``(m, d)`` result of ``operator @ x`` in the dtype of ``x``.
    """
    if sp.issparse(operator):
        if operator.format != "csr":
            operator = operator.tocsr()
    elif not isinstance(operator, np.ndarray):
        operator = np.asarray(operator, dtype=resolve_dtype())
    if isinstance(operator, np.ndarray) and operator.ndim != 2:
        raise ShapeError(f"operator must be 2-D, got shape {operator.shape}")
    return SparseMatMul.apply(as_tensor(x), operator)
