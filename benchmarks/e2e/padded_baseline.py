"""The fair padded baseline: a dense float32 encoder, as fast as NumPy allows.

This is what a dense framework does with a ragged mini-batch: pad every
sequence to the batch maximum, run batched GEMMs over ``(batch * max_len)``
rows and mask the padded keys additively before the softmax.  Unlike
``repro.models.transformer.run_encoder_layer_dense_reference`` -- an oracle
that allocates a fresh array per operator and runs attention through
``einsum`` -- every operator here writes into a workspace that is reused
across runs of the same padded shape (the ragged path reuses its arena the
same way), biases, residuals, softmax and layer norm are applied in place,
and attention is two batched ``matmul`` calls.

It is benchmark code, so its time must not move between two commits:
``baseline.padded_ms`` is the benchmark's drift control.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

LN_EPS = np.float32(1e-5)


class PaddedEncoder:
    """N stacked encoder layers over a zero-padded ``(B, L, H)`` batch."""

    def __init__(self, layers: Sequence, num_heads: int, masked: bool):
        self.layers = list(layers)
        self.num_heads = int(num_heads)
        self.masked = bool(masked)
        self._workspaces: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}

    def _workspace(self, batch: int, max_len: int) -> Dict[str, np.ndarray]:
        ws = self._workspaces.get((batch, max_len))
        if ws is None:
            w = self.layers[0]
            hidden, ff = w.w1.shape
            heads, d = self.num_heads, hidden // self.num_heads
            rows = batch * max_len
            f32 = np.float32
            ws = {
                "x": np.empty((rows, hidden), f32),
                "qkv": np.empty((rows, 3 * hidden), f32),
                "q": np.empty((batch, heads, max_len, d), f32),
                "kt": np.empty((batch, heads, d, max_len), f32),
                "v": np.empty((batch, heads, max_len, d), f32),
                "scores": np.empty((batch, heads, max_len, max_len), f32),
                "stat": np.empty((batch, heads, max_len, 1), f32),
                "attn": np.empty((batch, heads, max_len, d), f32),
                "merged": np.empty((rows, hidden), f32),
                "h1": np.empty((rows, hidden), f32),
                "ff": np.empty((rows, ff), f32),
                "h2": np.empty((rows, hidden), f32),
                "sq": np.empty((rows, hidden), f32),
                "row": np.empty((rows, 1), f32),
            }
            self._workspaces[(batch, max_len)] = ws
        return ws

    @staticmethod
    def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    sq: np.ndarray, row: np.ndarray) -> None:
        """In-place layer norm over the last axis of a 2-D array."""
        np.mean(x, axis=1, keepdims=True, out=row)
        x -= row
        np.multiply(x, x, out=sq)
        np.mean(sq, axis=1, keepdims=True, out=row)
        row += LN_EPS
        np.sqrt(row, out=row)
        x /= row
        x *= gamma
        x += beta

    def run(self, seqs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Pad, run every layer, and return the per-sequence valid rows
        (views into the workspace, valid until the next ``run``)."""
        lengths = np.array([s.shape[0] for s in seqs])
        batch, max_len = len(seqs), int(lengths.max())
        hidden = seqs[0].shape[1]
        heads, d = self.num_heads, hidden // self.num_heads
        ws = self._workspace(batch, max_len)

        # ``x`` and ``spare`` swap roles after every layer, so a layer's
        # output becomes the next layer's input without a copy.
        x, spare = ws["x"], ws["h2"]
        x3 = x.reshape(batch, max_len, hidden)
        x3.fill(0.0)
        for i, seq in enumerate(seqs):
            x3[i, :seq.shape[0]] = seq

        # Additive mask: -inf on padded keys (and on future keys when
        # causal); key 0 is always valid, so no row is fully masked.
        key_mask = np.where(np.arange(max_len)[None, :] < lengths[:, None],
                            np.float32(0.0), np.float32(-np.inf))
        mask = key_mask[:, None, None, :]
        if self.masked:
            causal = np.triu(np.full((max_len, max_len), -np.inf,
                                     dtype=np.float32), k=1)
            mask = mask + causal[None, None]
        scale = np.float32(1.0 / np.sqrt(d))

        for w in self.layers:
            qkv = np.matmul(x, w.wqkv, out=ws["qkv"])
            qkv += w.bqkv
            split = qkv.reshape(batch, max_len, 3, heads, d)
            np.multiply(split[:, :, 0].transpose(0, 2, 1, 3), scale,
                        out=ws["q"])
            np.copyto(ws["kt"], split[:, :, 1].transpose(0, 2, 3, 1))
            np.copyto(ws["v"], split[:, :, 2].transpose(0, 2, 1, 3))

            scores = np.matmul(ws["q"], ws["kt"], out=ws["scores"])
            scores += mask
            np.max(scores, axis=-1, keepdims=True, out=ws["stat"])
            scores -= ws["stat"]
            np.exp(scores, out=scores)
            np.sum(scores, axis=-1, keepdims=True, out=ws["stat"])
            scores /= ws["stat"]
            attn = np.matmul(scores, ws["v"], out=ws["attn"])
            np.copyto(ws["merged"].reshape(batch, max_len, heads, d),
                      attn.transpose(0, 2, 1, 3))

            h1 = np.matmul(ws["merged"], w.wo, out=ws["h1"])
            h1 += w.bo
            h1 += x
            self._layer_norm(h1, w.ln1_gamma, w.ln1_beta, ws["sq"], ws["row"])

            ff = np.matmul(h1, w.w1, out=ws["ff"])
            ff += w.b1
            np.maximum(ff, 0.0, out=ff)
            h2 = np.matmul(ff, w.w2, out=spare)
            h2 += w.b2
            h2 += h1
            self._layer_norm(h2, w.ln2_gamma, w.ln2_beta, ws["sq"], ws["row"])
            x, spare = h2, x

        out = x.reshape(batch, max_len, hidden)
        return [out[i, :n] for i, n in enumerate(lengths)]

    @staticmethod
    def padding_ratio(seqs: Sequence[np.ndarray]) -> float:
        """Padded tokens over valid tokens for one batch."""
        lengths = [s.shape[0] for s in seqs]
        return len(lengths) * max(lengths) / sum(lengths)
