"""Optimizers and learning-rate schedules.

Algorithm 1 of the paper is mini-batch gradient descent whose learning rate
decays by a factor ``alpha`` every ``k`` parameter updates. That decomposes
cleanly into a plain :class:`SGD` update rule plus a :class:`StepDecay`
schedule; the :class:`~repro.nn.trainer.Trainer` owns the batch sampling.
:class:`Adam` is included for the ablation benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from repro.exceptions import CheckpointError, NetworkError
from repro.nn.layer import Parameter


class LearningRateSchedule:
    """Maps an update counter to a learning rate."""

    def rate(self, step: int) -> float:
        raise NotImplementedError


class ConstantRate(LearningRateSchedule):
    """Fixed learning rate (what plain SGD in Figure 3 uses)."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise NetworkError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate

    def rate(self, step: int) -> float:
        return self.learning_rate


class StepDecay(LearningRateSchedule):
    """``lr = lr0 * alpha ** (step // decay_every)`` (paper Algorithm 1).

    Paper Section 5 uses ``lr0 = 1e-3`` (MGD), ``alpha = 0.5`` and
    ``k = 10,000``; ``decay_every`` should scale with dataset size.
    """

    def __init__(self, initial_rate: float, alpha: float = 0.5, decay_every: int = 10_000):
        if initial_rate <= 0:
            raise NetworkError(f"initial rate must be positive, got {initial_rate}")
        if not 0.0 < alpha <= 1.0:
            raise NetworkError(f"alpha must be in (0, 1], got {alpha}")
        if decay_every < 1:
            raise NetworkError(f"decay_every must be >= 1, got {decay_every}")
        self.initial_rate = initial_rate
        self.alpha = alpha
        self.decay_every = decay_every

    def rate(self, step: int) -> float:
        if step < 0:
            raise NetworkError(f"step must be >= 0, got {step}")
        return self.initial_rate * self.alpha ** (step // self.decay_every)


class Optimizer:
    """Base optimizer: owns the parameters and the update counter."""

    def __init__(self, parameters: Sequence[Parameter], schedule: LearningRateSchedule):
        if not parameters:
            raise NetworkError("optimizer needs at least one parameter")
        self.parameters = list(parameters)
        self.schedule = schedule
        self.step_count = 0
        self._scratch: Dict[Any, np.ndarray] = {}

    def _scratch_like(self, param: Parameter, slot: int = 0) -> np.ndarray:
        """Persistent per-(shape, dtype, slot) scratch for in-place math.

        Scratch is transient within one ``_apply`` call and never part of
        optimizer state, so it is excluded from ``state_dict``.
        """
        key = (param.value.shape, param.value.dtype.str, slot)
        buffer = self._scratch.get(key)
        if buffer is None:
            buffer = np.empty_like(param.value)
            self._scratch[key] = buffer
        return buffer

    @property
    def current_rate(self) -> float:
        return self.schedule.rate(self.step_count)

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then advance."""
        self._apply(self.current_rate)
        self.step_count += 1
        for p in self.parameters:
            p.version += 1

    def _apply(self, rate: float) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    # ------------------------------------------------------------------
    # Checkpointing. Slot buffers (momentum velocity, Adam moments) are
    # keyed by *parameter position* — id() values do not survive a process
    # restart — so a state dict restored into a freshly built optimizer
    # over an identically shaped network continues bitwise.
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot: update counter plus per-slot buffers."""
        return {
            "type": type(self).__name__,
            "step_count": int(self.step_count),
            "slots": self._slot_state(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (shape-checked)."""
        if state.get("type") != type(self).__name__:
            raise CheckpointError(
                f"optimizer state is for {state.get('type')!r}, "
                f"this optimizer is {type(self).__name__}"
            )
        self.step_count = int(state["step_count"])
        self._load_slot_state(state.get("slots") or {})

    def _slot_state(self) -> Dict[str, Any]:
        return {}

    def _load_slot_state(self, slots: Dict[str, Any]) -> None:
        if slots:
            raise CheckpointError(
                f"{type(self).__name__} has no slot buffers, state has "
                f"{sorted(slots)}"
            )

    def _pack_slot(self, buffers: Dict[int, np.ndarray]) -> Dict[str, np.ndarray]:
        """id-keyed buffer dict -> position-keyed copies."""
        by_id = {id(p): i for i, p in enumerate(self.parameters)}
        return {
            str(by_id[key]): value.copy()
            for key, value in buffers.items()
            if key in by_id
        }

    def _unpack_slot(
        self, slot: Dict[str, np.ndarray], slot_name: str
    ) -> Dict[int, np.ndarray]:
        """Position-keyed state -> id-keyed buffers, validating shapes."""
        buffers: Dict[int, np.ndarray] = {}
        for key, value in slot.items():
            index = int(key)
            if not 0 <= index < len(self.parameters):
                raise CheckpointError(
                    f"{slot_name} buffer for parameter {index}, optimizer "
                    f"has {len(self.parameters)}"
                )
            param = self.parameters[index]
            value = np.asarray(value, dtype=param.value.dtype)
            if value.shape != param.value.shape:
                raise CheckpointError(
                    f"{slot_name} buffer {index} has shape {value.shape}, "
                    f"parameter is {param.value.shape}"
                )
            buffers[id(param)] = value.copy()
        return buffers


class SGD(Optimizer):
    """Gradient descent, optionally with classical momentum.

    With the :class:`~repro.nn.trainer.Trainer` sampling single instances
    this is the paper's SGD; with mini-batches and :class:`StepDecay` it is
    the paper's MGD (Algorithm 1).
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        schedule: LearningRateSchedule,
        momentum: float = 0.0,
    ):
        super().__init__(parameters, schedule)
        if not 0.0 <= momentum < 1.0:
            raise NetworkError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[int, np.ndarray] = {}

    def _apply(self, rate: float) -> None:
        # Both branches keep the original op sequence (`v = momentum*v -
        # rate*grad`; `p += v` / `p -= rate*grad`), so results are
        # bitwise identical to the temporary-allocating form.
        if self.momentum == 0.0:
            # Plain SGD: the Table-1 parameters are small enough that a
            # `grad * rate` temporary costs the same as a pooled scratch
            # pass, and skipping the per-parameter scratch lookup is
            # what restores the update to allocating-replica speed.
            for p in self.parameters:
                p.value -= p.grad * rate
            return
        for p in self.parameters:
            scaled = self._scratch_like(p)
            np.multiply(p.grad, rate, out=scaled)
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros_like(p.value)
                self._velocity[id(p)] = v
            np.multiply(v, self.momentum, out=v)
            np.subtract(v, scaled, out=v)
            np.add(p.value, v, out=p.value)

    def _slot_state(self) -> Dict[str, Any]:
        return {"velocity": self._pack_slot(self._velocity)}

    def _load_slot_state(self, slots: Dict[str, Any]) -> None:
        self._velocity = self._unpack_slot(slots.get("velocity") or {}, "velocity")


class Adam(Optimizer):
    """Adam (Kingma & Ba) — extension beyond the paper, for ablations."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        schedule: LearningRateSchedule,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(parameters, schedule)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise NetworkError(f"betas must be in [0, 1), got {beta1}/{beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def _apply(self, rate: float) -> None:
        # Same op sequence as the textbook temporary-allocating form, with
        # every intermediate written into persistent scratch (`out=`), so
        # updates are bitwise identical but allocation-free per step.
        t = self.step_count + 1
        bias1 = 1 - self.beta1**t
        bias2 = 1 - self.beta2**t
        for p in self.parameters:
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.value)
                v = np.zeros_like(p.value)
                self._m[id(p)] = m
                self._v[id(p)] = v
            num = self._scratch_like(p, 0)
            den = self._scratch_like(p, 1)
            # m = beta1*m + (1-beta1)*grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(p.grad, 1 - self.beta1, out=num)
            np.add(m, num, out=m)
            # v = beta2*v + (1-beta2)*grad^2
            np.multiply(v, self.beta2, out=v)
            np.square(p.grad, out=num)
            np.multiply(num, 1 - self.beta2, out=num)
            np.add(v, num, out=v)
            # p -= (rate * m_hat) / (sqrt(v_hat) + eps)
            np.divide(m, bias1, out=num)
            np.multiply(num, rate, out=num)
            np.divide(v, bias2, out=den)
            np.sqrt(den, out=den)
            np.add(den, self.eps, out=den)
            np.divide(num, den, out=num)
            np.subtract(p.value, num, out=p.value)

    def _slot_state(self) -> Dict[str, Any]:
        return {"m": self._pack_slot(self._m), "v": self._pack_slot(self._v)}

    def _load_slot_state(self, slots: Dict[str, Any]) -> None:
        self._m = self._unpack_slot(slots.get("m") or {}, "m")
        self._v = self._unpack_slot(slots.get("v") or {}, "v")
