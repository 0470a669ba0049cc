"""Matrix values and the backward tape."""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class Matrix:
    """A rows x cols float64 value, optionally tracked on a Tape.

    The gradient buffer is allocated lazily. Parameters bound through a
    ParamStore pass their own grad array in, so backward passes accumulate
    straight into the store. Backward passes write gradients only into
    matrices on a tape; an untaped input (a constant) never gets a buffer.
    """

    __slots__ = ("data", "tape", "_grad")

    def __init__(self, data, tape: Tape | None = None, grad: np.ndarray | None = None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"expected 2-D data, got shape {arr.shape}")
        self.data = arr
        self.tape = tape
        self._grad = grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        # in-place ops on the property (grad += g) assign back through here
        self._grad = value

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

    def record(self, backward) -> None:
        self._steps.append(backward)

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
            steps.pop()()


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
