"""Plain gradient descent for tests that want a step with no state: the
trainer uses Adam only."""

from rdecomp import nn


class SgdOptimizer:
    """p <- p - lr * g on the flat vector."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, g):
        """New parameter dicts, one per dict in the sequence params, from the
        flat gradient g of all of them laid end to end, each in `nn.layout`
        order."""
        out, i = [], 0
        for p in params:
            layout = nn.layout(p)
            out.append(layout.views(layout.flatten(p) - self.lr * g[i : i + layout.size]))
            i += layout.size
        return out
