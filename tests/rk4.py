"""Fixed-step classical RK4, the reference solver of the convergence tests.

No command integrates with it; the tests use it to check observed orders
of convergence against closed-form solutions.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

RHS = Callable[[float, np.ndarray], np.ndarray]


def rk4_fixed(f: RHS, t0: float, t1: float, y0: np.ndarray,
              n_steps: int) -> np.ndarray:
    """Classical fourth-order Runge-Kutta with n_steps equal steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=float)
    for i in range(n_steps):
        t = t0 + i * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def convergence_order(f: RHS, t_span: tuple[float, float], y0: Sequence[float],
                      exact_final: Sequence[float],
                      step_counts: Sequence[int]) -> np.ndarray:
    """Observed RK4 convergence orders from a step-refinement sequence.

    Runs the fixed-step solver at each step count, measures the sup-norm
    error against the supplied exact final state, and returns the observed
    order between consecutive refinements
    (log(err ratio) / log(step ratio); plain log2 ratios when halving).
    """
    y0 = np.asarray(y0, dtype=float)
    exact = np.asarray(exact_final, dtype=float)
    errors = []
    for n in step_counts:
        y = rk4_fixed(f, t_span[0], t_span[1], y0, int(n))
        errors.append(float(np.abs(y - exact).max()))
    orders = []
    for (n_a, e_a), (n_b, e_b) in zip(zip(step_counts, errors),
                                      zip(step_counts[1:], errors[1:])):
        orders.append(math.log(e_a / e_b) / math.log(n_b / n_a))
    return np.asarray(orders)
