"""The out-of-place Adam step that `nn.AdamOptimizer` must equal bit for bit.

Each step rebinds t, m and v to new arrays, and builds the new parameter
vector from a fresh concatenation of the parameters in sorted-name order.
The update is Kingma & Ba's efficient form (arXiv 1412.6980, end of
section 2): both bias corrections folded into the step size alpha_t and
into eps_hat.
"""

import math

import numpy as np


class ReferenceAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = np.zeros(0)

    def step(self, params, g):
        """New parameters, as a dict of arrays, from the flat gradient g."""
        if self.t == 0:
            self.m = self.v = np.zeros(g.size)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        root = math.sqrt(1 - self.beta2**self.t)
        alpha = self.lr * root / (1 - self.beta1**self.t)
        update = self.m * alpha / (np.sqrt(self.v) + self.eps * root)
        flat = np.concatenate([params[k].reshape(-1) for k in sorted(params)]) - update
        out, i = {}, 0
        for k in sorted(params):
            out[k] = flat[i : i + params[k].size].reshape(params[k].shape)
            i += params[k].size
        return out
