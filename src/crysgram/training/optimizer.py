"""AdamW with decoupled weight decay and decay-exempt parameter patterns."""

import numpy as np

from ..errors import ConfigError

# biases and layer-norm gains never receive weight decay
DECAY_EXEMPT_SUFFIXES = (".b", ".bias", ".gain")

# elements per slice of one update: the dozen elementwise passes over a
# slice of parameter, gradient, moments and two scratch rows stay in L2
# cache instead of streaming each full tensor from memory a dozen times
SLICE = 32768


class AdamW:
    """Standard AdamW update with bias-corrected moment estimates.

    The decoupled decay multiplies parameters by (1 - lr * decay) before
    the gradient step and is skipped for exempt parameter names.
    The step reads each gradient and never writes into it, so a gradient
    array may be shared with other parameters or graph nodes. Gradients
    are cleared (to None) after each step, so stepping twice without an
    intervening backward raises.
    """

    def __init__(self, state, base_lr, weight_decay=0.0,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.state = state
        self.base_lr = float(base_lr)
        self.weight_decay = float(weight_decay)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        # first and second moments, built from each parameter's first gradient
        self.m = {}
        self.v = {}

    def is_exempt(self, name):
        return name.endswith(DECAY_EXEMPT_SUFFIXES)

    def step(self, lr=None):
        """Apply one update using gradients accumulated by backward().

        Each tensor is updated slice by slice with the same elementwise
        operations as a whole-tensor update, so the bits do not depend on
        the slice size.
        """
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
        scratch = {}  # dtype -> two slice-sized rows, reused by every tensor
        for name, p in self.state.named_parameters():
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            g = p.grad.reshape(-1)
            first = name not in self.m
            if first:
                self.m[name] = np.empty(p.data.shape, g.dtype)
                self.v[name] = np.empty(p.data.shape, g.dtype)
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            params = p.data.reshape(-1)
            if g.dtype not in scratch:
                scratch[g.dtype] = np.empty((2, SLICE), g.dtype)
            rows = scratch[g.dtype]
            decay = 1.0 - lr * self.weight_decay \
                if self.weight_decay and not self.is_exempt(name) else None
            for start in range(0, g.size, SLICE):
                part = slice(start, start + SLICE)
                gs, ms, vs, ps = g[part], m[part], v[part], params[part]
                u, w = rows[:, :gs.size]
                np.multiply(gs, 1.0 - self.beta1, out=u)
                # zero moments plus this term: 0.0 + -0.0 is +0.0, and a
                # moment that underflowed to -0.0 must also end at +0.0
                u += 0.0
                np.multiply(gs, 1.0 - self.beta2, out=w)
                w *= gs
                if first:
                    ms[...] = u
                    vs[...] = w
                else:
                    ms *= self.beta1
                    ms += u
                    vs *= self.beta2
                    vs += w
                if decay is not None:
                    ps *= decay
                # lr * m_hat / (sqrt(v_hat) + eps), in the two scratch rows
                np.divide(ms, bc1, out=u)
                np.divide(vs, bc2, out=w)
                np.sqrt(w, out=w)
                w += self.eps
                u *= lr
                u /= w
                ps -= u.astype(ps.dtype, copy=False)
            p.grad = None
