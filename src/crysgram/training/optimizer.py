"""AdamW with decoupled weight decay and decay-exempt parameter patterns."""

import numpy as np

from ..errors import ConfigError

# biases and layer-norm gains never receive weight decay
DECAY_EXEMPT_SUFFIXES = (".b", ".bias", ".gain")


class AdamW:
    """Standard AdamW update with bias-corrected moment estimates.

    The decoupled decay multiplies parameters by (1 - lr * decay) before
    the gradient step and is skipped for exempt parameter names.
    Gradients are cleared (to None) after each step, so stepping twice
    without an intervening backward raises.
    """

    def __init__(self, state, base_lr, weight_decay=0.0,
                 beta1=0.9, beta2=0.999, eps=1e-8,
                 exempt_suffixes=DECAY_EXEMPT_SUFFIXES):
        self.state = state
        self.base_lr = float(base_lr)
        self.weight_decay = float(weight_decay)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.exempt_suffixes = tuple(exempt_suffixes)
        self.step_count = 0
        # first and second moments, built from each parameter's first gradient
        self.m = {}
        self.v = {}

    def is_exempt(self, name):
        return any(name.endswith(suffix) for suffix in self.exempt_suffixes)

    def step(self, lr=None):
        """Apply one update using gradients accumulated by backward()."""
        lr = self.base_lr if lr is None else float(lr)
        missing = [name for name, p in self.state.named_parameters()
                   if p.grad is None]
        if missing:
            raise ConfigError(
                f"optimizer step before backward: no gradients for "
                f"{missing[0]} (+{len(missing) - 1} more)")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.state.named_parameters():
            g = p.grad
            m = self.m.get(name)
            if m is None:
                # what zero moments would hold after one step; adding 0.0
                # turns a -0.0 into the +0.0 that 0.0 + -0.0 gives
                m = self.m[name] = (1.0 - self.beta1) * g
                m += 0.0
                v = self.v[name] = (1.0 - self.beta2) * g * g
            else:
                v = self.v[name]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
            if self.weight_decay and not self.is_exempt(name):
                p.data *= 1.0 - lr * self.weight_decay
            # lr * m_hat / (sqrt(v_hat) + eps), in place in two temporaries
            update = m / bc1
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update *= lr
            update /= denom
            p.data -= update.astype(p.data.dtype, copy=False)
            p.grad = None
