"""Independent float64 oracle for the transformer encoder stack.

Written from the layer's equations (post-layer-norm encoder of Vaswani et
al., as the paper's Figure 3 lays it out), one sequence at a time, in
float64.  It reads nothing but the weight arrays of an ``EncoderWeights``
object and imports no math from ``repro``: a bug shared by every ``repro``
execution path cannot make this oracle agree with it.

For one sequence ``x`` of shape ``(s, H)`` with ``heads`` heads of size
``d = H / heads``::

    [Q | K | V] = x Wqkv + bqkv              columns ordered (3, heads, d)
    S_h         = Q_h K_h^T / sqrt(d)        (+ causal mask when masked)
    A_h         = softmax_rows(S_h) V_h
    r1          = concat_h(A_h) Wo + bo + x
    n1          = LN(r1; gamma1, beta1)      biased variance, eps = 1e-5
    r2          = relu(n1 W1 + b1) W2 + b2 + n1
    out         = LN(r2; gamma2, beta2)
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

LN_EPS = 1e-5

_WEIGHT_FIELDS = ("wqkv", "bqkv", "wo", "bo", "w1", "b1", "w2", "b2",
                  "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")


def oracle_weights(weights) -> Dict[str, np.ndarray]:
    """Float64 copies of one layer's weight arrays."""
    return {name: np.asarray(getattr(weights, name), dtype=np.float64)
            for name in _WEIGHT_FIELDS}


def _layer_norm(x: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


def encoder_layer(x: np.ndarray, w: Dict[str, np.ndarray], num_heads: int,
                  masked: bool) -> np.ndarray:
    """One encoder layer on one ``(s, H)`` sequence, in float64."""
    s, hidden = x.shape
    d = hidden // num_heads
    qkv = (x @ w["wqkv"] + w["bqkv"]).reshape(s, 3, num_heads, d)
    attn = np.empty((s, num_heads, d), dtype=np.float64)
    for h in range(num_heads):
        q, k, v = qkv[:, 0, h], qkv[:, 1, h], qkv[:, 2, h]
        scores = q @ k.T / np.sqrt(d)
        if masked:
            future = np.triu(np.ones((s, s), dtype=bool), k=1)
            scores = np.where(future, -np.inf, scores)
        scores = scores - scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        attn[:, h] = probs @ v
    r1 = attn.reshape(s, hidden) @ w["wo"] + w["bo"] + x
    n1 = _layer_norm(r1, w["ln1_gamma"], w["ln1_beta"])
    ff = np.maximum(n1 @ w["w1"] + w["b1"], 0.0) @ w["w2"] + w["b2"]
    return _layer_norm(ff + n1, w["ln2_gamma"], w["ln2_beta"])


def encoder_stack(seqs: Sequence[np.ndarray],
                  layers: Sequence[Dict[str, np.ndarray]], num_heads: int,
                  masked: bool) -> List[np.ndarray]:
    """The N-layer stack on every sequence of a batch (``layers`` holds
    one :func:`oracle_weights` dict per layer)."""
    out = []
    for seq in seqs:
        x = np.asarray(seq, dtype=np.float64)
        for w in layers:
            x = encoder_layer(x, w, num_heads, masked)
        out.append(x)
    return out


def max_abs_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference; ``inf`` on a shape mismatch or NaN."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return float("inf")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return err if np.isfinite(err) else float("inf")


def matches(got: np.ndarray, want: np.ndarray, tol: float = 1e-4) -> bool:
    """``|got - want| <= tol + tol * |want|`` everywhere."""
    got = np.asarray(got)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol + tol * np.abs(want)))
