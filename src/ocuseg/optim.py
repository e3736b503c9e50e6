"""The training loop shared by both stages: SGD with momentum bound once to a
run's named parameters, lr scales and velocities, a warmup/decay learning-rate
schedule, global-norm gradient clipping and the non-finite-loss abort."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

# the momentum of both training stages
MOMENTUM = 0.9


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm.  Non-finite norms abort."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise FloatingPointError("non-finite gradient norm")
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return float(norm)


class SgdMomentum:
    """v <- MOMENTUM*v + g;  p <- p - lr*scale*v, aborting on non-finite grads.
    Binds the parameter dict it updates in place, each parameter's lr scale
    (1 where ``lr_scales`` omits it) and a zero velocity at construction."""

    def __init__(self, params: dict[str, np.ndarray],
                 lr_scales: dict[str, float] | None = None):
        self.params = params
        self.scales = {name: (lr_scales or {}).get(name, 1.0) for name in params}
        self.velocity = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, p in self.params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for {name!r}")
            v = self.velocity[name]
            v *= MOMENTUM
            v += g
            p -= lr * self.scales[name] * v


def lr_schedule(base_lr: float, step: int, total_steps: int) -> float:
    """Linear warmup from 0.1x over the first 100 steps, then linear decay
    to 0.1x at the end of training (deterministic in the step index)."""
    warm = min(1.0, 0.1 + 0.9 * step / 100)
    frac = step / max(1, total_steps)
    return base_lr * warm * (1.0 - 0.9 * frac)


def fit(step_batch: Callable[[list[int]], tuple], params: dict[str, np.ndarray],
        n: int, *, epochs: int, batch: int, lr: float, shuffler,
        clip: Callable[[dict[str, np.ndarray]], float],
        lr_scales: dict[str, float] | None = None
        ) -> Iterator[tuple[int, list[float]]]:
    """Mini-batch SGD with momentum ``MOMENTUM`` over ``n`` examples,
    updating ``params`` in place; yields ``(epoch, means)`` after each epoch.

    Each epoch shuffles the example order with ``shuffler`` and cuts it into
    batches of ``batch``.  ``step_batch(indices)`` returns ``(loss, grads,
    *stats)``; the grads are clipped by ``clip``, then one step is taken at
    the ``lr_schedule`` rate.  ``means`` holds the epoch's batch means of the
    loss and of each stat.  A non-finite loss raises FloatingPointError
    naming the epoch, before that batch's step.
    """
    opt = SgdMomentum(params, lr_scales)
    order = list(range(n))
    total_steps = epochs * ((n + batch - 1) // batch)
    step = 0
    for epoch in range(epochs):
        shuffler.shuffle(order)
        sums: list[float] = []
        batches = 0
        for i in range(0, n, batch):
            loss, grads, *stats = step_batch(order[i:i + batch])
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged at epoch {epoch}")
            clip(grads)
            opt.step(grads, lr_schedule(lr, step, total_steps))
            values = (loss, *stats)
            sums = [s + v for s, v in zip(sums or [0.0] * len(values), values)]
            batches += 1
            step += 1
        yield epoch, [s / batches for s in sums]
