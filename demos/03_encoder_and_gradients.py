"""The from-scratch encoder: forward pass, attention maps, and a
finite-difference check of the reverse-mode gradients.
"""

import numpy as np

from crysgram.grammar import parse_formula
from crysgram.nn import EncoderState, desk_config
from crysgram.objectives import encode_batch, lpp_head
from crysgram.tokens import (
    ElementEmbeddingTable,
    build_vocabulary,
    embed_formula,
    tokenize_crystal,
)

vocab = build_vocabulary()
table = ElementEmbeddingTable.deterministic()
config = desk_config(vocab.size, dtype="float64")
state = EncoderState(config, seed=0)
print(f"desk preset: {config.n_layers} layers, {config.n_heads} heads, "
      f"d_model {config.d_model}; {state.parameter_count():,} parameters")

comp = parse_formula("NaCl")
tokens = np.array([tokenize_crystal(225, comp, None, vocab)])
matrix = embed_formula(comp, table)

hidden, cls, attn = encode_batch(state, tokens, matrix[None], mode="eval",
                                 record_attention=True)
print(f"\nhidden {hidden.shape}, cls {cls.shape}")
weights = attn.layers[-1][0]
print(f"last-layer attention: {weights.shape}, "
      f"row sums in [{weights.sum(-1).min():.9f}, {weights.sum(-1).max():.9f}]")

# gradient of a scalar loss vs central finite differences on one weight
state.zero_grads()
_, cls, _ = encode_batch(state, tokens, matrix[None], mode="eval")
loss = (lpp_head(cls, state) ** 2).sum()
loss.backward()
param = state["layers.0.attn.q.w"]
i = np.unravel_index(np.argmax(np.abs(param.grad)), param.grad.shape)
analytic = param.grad[i]
eps = 1e-5
orig = param.data[i]
for sign in (+1, -1):
    param.data[i] = orig + sign * eps
    _, cls, _ = encode_batch(state, tokens, matrix[None], mode="eval")
    value = (lpp_head(cls, state) ** 2).sum().item()
    if sign > 0:
        plus = value
    else:
        minus = value
param.data[i] = orig
numeric = (plus - minus) / (2 * eps)
print(f"\ngradient check on layers.0.attn.q.w{list(i)}: "
      f"analytic {analytic:+.10f} vs finite-difference {numeric:+.10f} "
      f"(rel err {abs(analytic - numeric) / abs(numeric):.2e})")
