"""Plain gradient descent for tests that want a step with no state: the
trainer uses Adam only."""

from rdecomp import nn


class SgdOptimizer:
    """p <- p - lr * g on the flat vector."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, g):
        """New parameters from the flat gradient g, in `nn.layout` order."""
        layout = nn.layout(params)
        return layout.views(layout.flatten(params) - self.lr * g)
