"""Built-in model problems on the unit square.

Both presets use a constant scalar diffusion alpha = 1, no convection and the
constant reaction gamma = -10, which makes the full operator indefinite while
the stiffness part stays symmetric positive definite.  The exact solutions
vanish on the boundary:

* example 1: u(x, y) = sin(pi x) sin(pi y)
* example 2: u(x, y) = x (1-x)^2 y (1-y)^2, a polynomial of total degree 6

Each preset carries the matching right-hand side f = -Lap(u) - 10 u and the
exact gradient for error integration.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from .assembly import ProblemSpec

GAMMA = -10.0


def _alpha_one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _beta_zero(x, y):
    return np.zeros(np.shape(x) + (2,))


def _gamma_const(x, y):
    return np.full(np.shape(x), GAMMA)


def _u1(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _grad_u1(x, y):
    return np.stack(
        [
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        ],
        axis=-1,
    )


def _f1(x, y):
    # -Lap(u) = 2 pi^2 u, so f = (2 pi^2 + gamma) u
    return (2.0 * np.pi**2 + GAMMA) * _u1(x, y)


def _bump(t):
    return t * (1.0 - t) ** 2


def _bump_d1(t):
    return (1.0 - t) * (1.0 - 3.0 * t)


def _bump_d2(t):
    return 6.0 * t - 4.0


def _u2(x, y):
    return _bump(x) * _bump(y)


def _grad_u2(x, y):
    return np.stack(
        [_bump_d1(x) * _bump(y), _bump(x) * _bump_d1(y)],
        axis=-1,
    )


def _f2(x, y):
    return (
        -_bump_d2(x) * _bump(y)
        - _bump(x) * _bump_d2(y)
        + GAMMA * _bump(x) * _bump(y)
    )


def _preset(u, grad_u, f, name: str) -> ProblemSpec:
    return ProblemSpec(alpha=_alpha_one, beta=_beta_zero, gamma=_gamma_const, f=f,
                       exact_u=u, exact_grad_u=grad_u, name=name)


def example_1() -> ProblemSpec:
    """Trigonometric solution; smooth but not in any polynomial space."""
    return _preset(_u1, _grad_u1, _f1, "example-1")


def example_2() -> ProblemSpec:
    """Polynomial solution of total degree 6; degree-6 spaces capture it exactly."""
    return _preset(_u2, _grad_u2, _f2, "example-2")


def load_problem_file(path) -> ProblemSpec:
    """Load a ProblemSpec named PROBLEM from a user-supplied Python file."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"problem file not found: {path}")
    module_spec = importlib.util.spec_from_file_location(f"_problem_{path.stem}", path)
    module = importlib.util.module_from_spec(module_spec)
    try:
        module_spec.loader.exec_module(module)
    except Exception as exc:
        raise ValueError(f"{path}: could not load: {exc}") from exc
    problem = getattr(module, "PROBLEM", None)
    if not isinstance(problem, ProblemSpec):
        raise ValueError(f"{path} must define PROBLEM as a ProblemSpec instance")
    return problem


def get_problem(example) -> ProblemSpec:
    """Resolve an --example value: 1, 2 or a path to a problem file."""
    text = str(example)
    if text == "1":
        return example_1()
    if text == "2":
        return example_2()
    return load_problem_file(text)
