"""Fast adaptation at the target edge node (Section III-B, eq. 6).

Given the initialization the platform transfers, the target node runs a few
plain gradient-descent steps on its K local samples and is then evaluated on
held-out local data.  :func:`evaluate_adaptation` implements the paper's
testing protocol for Figures 3(b)–3(e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..attacks.common import embed_inputs
from ..autodiff import Tensor, fastpath, ops
from ..data.dataset import Dataset, NodeSplit
from ..nn.batched import (
    _param_shapes, batch_key, batched_loss_gradient, supports_batched_loss,
)
from ..nn.losses import accuracy, cross_entropy, one_hot
from ..nn.modules import Model
from ..nn.parameters import Params, detach
from .maml import LossFn, inner_adapt

__all__ = ["adapt", "AdaptationCurve", "evaluate_adaptation"]

#: one target's test ``(loss, accuracy)`` after 0..max_steps steps
_Curve = List[Tuple[float, float]]


def adapt(
    model: Model,
    params: Params,
    data: Dataset,
    alpha: float,
    steps: int = 1,
    loss_fn: LossFn = cross_entropy,
) -> Params:
    """``phi_t = theta - alpha * dL(theta, D_t)`` — possibly iterated."""
    adapted = inner_adapt(
        model, params, data, alpha, steps=steps, loss_fn=loss_fn,
        create_graph=False,
    )
    return detach(adapted)


@dataclass
class AdaptationCurve:
    """Loss/accuracy as a function of the number of adaptation steps.

    ``losses[s]`` / ``accuracies[s]`` are the target-test metrics after
    ``s`` gradient steps (index 0 = before any adaptation), averaged over
    the evaluated target nodes.
    """

    losses: List[float]
    accuracies: List[float]

    def final_loss(self) -> float:
        return self.losses[-1]

    def final_accuracy(self) -> float:
        return self.accuracies[-1]

    def best_accuracy(self) -> float:
        return max(self.accuracies)


def evaluate_adaptation(
    model: Model,
    params: Params,
    targets: Sequence[NodeSplit],
    alpha: float,
    max_steps: int = 10,
    loss_fn: LossFn = cross_entropy,
) -> AdaptationCurve:
    """The paper's target-node protocol.

    For every target node: start from the transferred initialization, take
    up to ``max_steps`` gradient steps on the node's K-sample training set,
    and after each step record loss/accuracy on the node's held-out test
    set.  Curves are averaged across target nodes, summed in target order.

    While the fast path is on, targets whose train sets stack (one
    :func:`repro.nn.batched.batch_key`) step together: one first-order
    kernel per group, called once per step on the group's stacked θ.  A
    stacked slice is the one-node step bit for bit, and each step is
    scored through the fused ``softmax_xent``, bit-identical to the loss
    composite, so every curve equals the per-target loop's; that loop
    runs every target the kernel declines.
    """
    if not targets:
        raise ValueError("need at least one target node")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    for index, split in enumerate(targets):
        if len(split.train) == 0 or len(split.test) == 0:
            raise ValueError(f"target {index} has an empty train or test set")
    stacked = _stacked_curves(
        model, params, targets, alpha, max_steps, loss_fn
    )
    sum_losses = [0.0] * (max_steps + 1)
    sum_accs = [0.0] * (max_steps + 1)
    for index, split in enumerate(targets):
        curve = stacked.get(index) or _target_curve(
            model, params, split, alpha, max_steps, loss_fn
        )
        for step, (loss, acc) in enumerate(curve):
            sum_losses[step] += loss
            sum_accs[step] += acc
    count = float(len(targets))
    return AdaptationCurve(
        losses=[v / count for v in sum_losses],
        accuracies=[v / count for v in sum_accs],
    )


def _target_curve(
    model: Model,
    params: Params,
    split: NodeSplit,
    alpha: float,
    max_steps: int,
    loss_fn: LossFn,
) -> _Curve:
    """One target, one step at a time: the reference protocol."""
    current = detach(params)
    curve: _Curve = []
    for step in range(max_steps + 1):
        if step > 0:
            current = adapt(
                model, current, split.train, alpha, steps=1, loss_fn=loss_fn
            )
        logits = model.apply(current, split.test.x)
        loss = loss_fn(logits, split.test.y).item()
        curve.append((loss, accuracy(logits, split.test.y)))
    return curve


def _stacked_curves(
    model: Model,
    params: Params,
    targets: Sequence[NodeSplit],
    alpha: float,
    max_steps: int,
    loss_fn: LossFn,
) -> Dict[int, _Curve]:
    """The curves of every target in a group the first-order kernel
    takes, by target index; none with the fast path off, for a model or
    loss the kernel declines, or for a θ that is not the model's tree."""
    shapes = {name: t.shape for name, t in params.items()}
    if (
        not fastpath.enabled()
        or not supports_batched_loss(model, loss_fn)
        or shapes != _param_shapes(model)
    ):
        return {}
    groups: Dict[Tuple, List[int]] = {}
    for index, split in enumerate(targets):
        key = batch_key(model, split.train.x, split.train.y)
        if key is not None:
            groups.setdefault(key, []).append(index)
    curves: Dict[int, _Curve] = {}
    for members in groups.values():
        trains = [targets[i].train for i in members]
        kernel = batched_loss_gradient(
            model,
            (np.array([d.x for d in trains]), np.array([d.y for d in trains])),
        )
        if kernel is None:  # labels the tape reports: the loop raises
            continue
        scorers = [_fused_scorer(model, targets[i].test) for i in members]
        rows: List[_Curve] = [[] for _ in members]
        theta = {
            name: np.repeat(t.data[None], len(members), axis=0)
            for name, t in sorted(params.items())
        }
        for step in range(max_steps + 1):
            if step > 0:
                grads = kernel(theta, gradient=True).gradient
                theta = {n: a - alpha * grads[n] for n, a in theta.items()}
            for row, score in enumerate(scorers):
                rows[row].append(
                    score({name: Tensor(a[row]) for name, a in theta.items()})
                )
        curves.update(zip(members, rows))
    return curves


def _fused_scorer(
    model: Model, test: Dataset
) -> Callable[[Params], Tuple[float, float]]:
    """``θ ↦ (loss, accuracy)`` on ``test``, the loss through the fused
    ``softmax_xent``; the features (:func:`embed_inputs`) and the one-hot
    labels are built once."""
    features = Tensor(embed_inputs(model, test.x))
    labels = np.asarray(test.y)
    onehot = Tensor(one_hot(labels, model.output_dim))

    def score(theta: Params) -> Tuple[float, float]:
        logits = model.apply(theta, features)
        fastpath.note_fused_dispatch()
        loss = ops.softmax_xent(logits, onehot).item()
        return loss, accuracy(logits, labels)

    return score
