"""A nonsymmetric, variable-coefficient problem for `--example PATH`.

-div((1 + xy) grad u) + (3, -2) . grad u - 10 u = f on the unit square with
u = sin(pi x) sin(pi y).  The convection makes the full operator
nonsymmetric and gamma = -10 keeps it indefinite; alpha varies in space, so
the stiffness part is no multiple of the Laplacian.
"""

import numpy as np

from twolevelfem import ProblemSpec

BETA = (3.0, -2.0)
GAMMA = -10.0


def alpha(x, y):
    return 1.0 + x * y


def beta(x, y):
    return np.stack([np.full_like(x, BETA[0]), np.full_like(x, BETA[1])], axis=-1)


def gamma(x, y):
    return np.full_like(x, GAMMA)


def exact_u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def exact_grad_u(x, y):
    return np.pi * np.stack(
        [np.cos(np.pi * x) * np.sin(np.pi * y), np.sin(np.pi * x) * np.cos(np.pi * y)],
        axis=-1,
    )


def f(x, y):
    # -div(alpha grad u) = 2 pi^2 alpha u - grad(alpha) . grad u, grad alpha = (y, x)
    ux, uy = np.moveaxis(exact_grad_u(x, y), -1, 0)
    u = exact_u(x, y)
    return (2.0 * np.pi**2 * alpha(x, y) * u - (y * ux + x * uy)
            + BETA[0] * ux + BETA[1] * uy + GAMMA * u)


PROBLEM = ProblemSpec(
    alpha=alpha, beta=beta, gamma=gamma, f=f,
    exact_u=exact_u, exact_grad_u=exact_grad_u, name="nonsymmetric",
)
