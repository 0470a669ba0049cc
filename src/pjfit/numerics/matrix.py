"""Matrix values and the backward tape."""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class Matrix:
    """A rows x cols float64 value, optionally tracked on a Tape.

    The gradient is allocated lazily. Backward passes write gradients only
    into matrices on a tape; an untaped input (a constant) never gets one.
    A backward closure adds its contribution through ``grad_slot``: the
    first contribution to an activation's gradient becomes that gradient,
    with no zeros allocated and added to. A parameter bound through a
    ParamStore (``BoundParams``) passes its gradient view and itself in,
    and the parameter's ``reached`` flag says whether a contribution is
    the first of the step; see ``params``.
    """

    __slots__ = ("data", "tape", "_grad", "_param")

    def __init__(self, data, tape: Tape | None = None, grad: np.ndarray | None = None,
                 param=None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"expected 2-D data, got shape {arr.shape}")
        self.data = arr
        self.tape = tape
        self._grad = grad
        # the Param whose gradient view ``grad`` is
        self._param = param

    @property
    def grad(self) -> np.ndarray:
        """The gradient, with every contribution so far added: zeros when
        nothing has reached it yet."""
        grad, first = self.grad_slot()
        if first:
            grad.fill(0.0)
        return grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        # in-place ops on the property (grad += g) assign back through here
        self._grad = value

    def grad_slot(self) -> tuple[np.ndarray, bool]:
        """(buffer, first): the gradient buffer, and whether nothing has
        reached it yet in this backward pass. When ``first``, its contents
        are undefined and the caller must write all of it; otherwise the
        caller adds into it. Either way the gradient counts as reached."""
        param = self._param
        if param is not None:
            first, param.reached = not param.reached, True
            return self._grad, first
        if self._grad is None:
            self._grad = np.empty_like(self.data)
            return self._grad, True
        return self._grad, False

    @property
    def has_grad(self) -> bool:
        return self._grad is not None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, taped={self.tape is not None})"


class Tape:
    """Backward closures in execution order, replayed in reverse."""

    __slots__ = ("_steps",)

    def __init__(self) -> None:
        self._steps: list = []

    def record(self, backward, out: Matrix | None = None) -> None:
        """Append a backward closure. With ``out``, the node's output, the
        closure is skipped when nothing reached ``out``'s gradient: it
        would only add zeros."""
        self._steps.append((backward, out))

    def __len__(self) -> int:
        return len(self._steps)

    def backward(self, out: Matrix) -> None:
        """Seed d(out)/d(out)=1 and accumulate gradients into every input.

        The pass consumes the tape. Each recorded step holds its output node,
        which holds the tape, so releasing the steps here breaks that cycle
        and frees the graph without waiting for the cyclic collector.
        """
        if out.shape != (1, 1):
            raise DimensionError(f"backward seeds a scalar, got {out.shape}")
        if out.tape is not self:
            raise ValueError("output was not recorded on this tape")
        out.grad[...] += 1.0
        steps, self._steps = self._steps, []
        while steps:
            backward, node = steps.pop()
            if node is None or node.has_grad:
                backward()


def tape_of(*matrices: Matrix) -> Tape | None:
    """The single tape shared by the given matrices, or None.

    Mixing two live tapes in one op is a bug: the backward pass of one
    would silently miss the other's nodes.
    """
    tape = None
    for m in matrices:
        if m.tape is None:
            continue
        if tape is None:
            tape = m.tape
        elif tape is not m.tape:
            raise ValueError("operands recorded on different tapes")
    return tape
