"""Seeded benchmark inputs.

Every file the program reads during a benchmark run is generated here from
the benchmark seed; the program itself never sees the seed.  The same seed
always gives byte-identical inputs.

Draws are stratified: a range is cut into equal strata and one value is
drawn inside each, so the total work of a workload varies little between
seeds while every value still changes with the seed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# The bundled fig4 demo scenario (two detuned coupled oscillators,
# phenomenological coefficients, t_end 80) as shipped with oscibath 0.1.0.
# It is kept here verbatim, without its comments, so that the benchmark's
# inputs stay fixed when the demo text changes.
FIG4_TEMPLATE = """\
[oscillator 1]
omega = 2
n0 = 0
v0 = 0

[coefficients 1]
kind = phenomenological
mean_lambda = 0.2
amp_lambda = 0.05
mean_D = 0.05
amp_D = 0.05
phase_lambda = 0
phase_D = {pi}
ramp_time = 0.5

[bath 1 1]
statistics = fermionic
temperature = 0.5
alpha = 0.03
gamma = 12

[bath 1 2]
statistics = bosonic
temperature = 0.5
alpha = 0.03
gamma = 12

[oscillator 2]
omega = 3
n0 = 0
v0 = 0

[coefficients 2]
kind = phenomenological
mean_lambda = 0.2
amp_lambda = 0.05
mean_D = 0.05
amp_D = 0.05
phase_lambda = {pi}
phase_D = 0
ramp_time = 0.5

[bath 2 1]
statistics = fermionic
temperature = 0.5
alpha = 0.03
gamma = 12

[bath 2 2]
statistics = bosonic
temperature = 0.5
alpha = 0.03
gamma = 12

[coupling]
beta 1 2 = {beta}

[integration]
t_end = {t_end}
output_dt = 0.01
rtol = 1e-9
atol = 1e-12
"""

_PI = format(math.pi, ".17g")

# Parameter ranges of the bundled demos (fig2 and fig4).
OMEGA_RANGE = (1.0, 3.0)
MEAN_LAMBDA_RANGE = (0.1, 0.2)
AMP_LAMBDA = 0.05
MEAN_D = 0.05
AMP_D_RANGE = (0.04, 0.05)
RAMP_TIME = 0.5
DEMO_BETA_RANGE = (0.05, 0.5)


def fig4_scenario(beta: str, t_end: float = 80.0) -> str:
    """Scenario text of the fig4 demo at coupling ``beta``."""
    return FIG4_TEMPLATE.format(pi=_PI, beta=beta, t_end=format(t_end, "g"))


def _stratified(rng: np.random.Generator, lo: float, hi: float,
                count: int) -> np.ndarray:
    """One uniform draw inside each of ``count`` equal strata of [lo, hi]."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return lo + (hi - lo) * u


def log_stratified_tokens(seed: int, lo: float, hi: float,
                          count: int) -> list[str]:
    """One value per log-stratum of [lo, hi], as 6-digit tokens in order."""
    rng = np.random.default_rng(seed)
    logs = _stratified(rng, math.log(lo), math.log(hi), count)
    return [format(math.exp(x), ".6g") for x in logs]


def _coefficient_table(t: np.ndarray, omega: float, mean_lambda: float,
                       amp_d: float, phase_lambda: float,
                       phase_d: float) -> tuple[np.ndarray, np.ndarray]:
    # Same shape as the phenomenological model: a Gaussian ramp from zero
    # times a mean-plus-cosine at the oscillator frequency.
    ramp = 1.0 - np.exp(-(t / RAMP_TIME) ** 2)
    lam = ramp * (mean_lambda + AMP_LAMBDA * np.cos(omega * t + phase_lambda))
    dif = ramp * (MEAN_D + amp_d * np.cos(omega * t + phase_d))
    return lam, dif


def write_chain(directory: Path, seed, n: int = 32, t_end: float = 1.0,
                knot_dt: float = 0.1) -> Path:
    """Write an n-oscillator nearest-neighbour chain with tabulated coefficients.

    Oscillator frequencies, friction means, diffusion amplitudes and the
    couplings beta_{i,i+1} are drawn one per stratum of the bundled demos'
    ranges, in chain order.  Phases alternate between the two oscillators
    of the fig4 demo.  Each oscillator gets its own ``t,lambda,D`` table on
    a knot grid of spacing ``knot_dt`` covering [0, t_end].  ``seed`` is
    anything ``numpy.random.default_rng`` accepts.  Returns the scenario
    path; table paths inside it are absolute.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    omegas = _stratified(rng, *OMEGA_RANGE, n)
    mean_lambdas = _stratified(rng, *MEAN_LAMBDA_RANGE, n)
    amp_ds = _stratified(rng, *AMP_D_RANGE, n)
    betas = _stratified(rng, *DEMO_BETA_RANGE, n - 1)
    knots = np.linspace(0.0, t_end, int(round(t_end / knot_dt)) + 1)

    lines = []
    for i in range(n):
        phase_lambda, phase_d = (0.0, math.pi) if i % 2 == 0 else (math.pi, 0.0)
        lam, dif = _coefficient_table(knots, omegas[i], mean_lambdas[i],
                                      amp_ds[i], phase_lambda, phase_d)
        table = directory / f"coef_{i + 1:02d}.csv"
        rows = ["t,lambda,D"] + [f"{t:.17g},{a:.17g},{b:.17g}"
                                 for t, a, b in zip(knots, lam, dif)]
        table.write_text("\n".join(rows) + "\n", encoding="utf-8")
        lines += [f"[oscillator {i + 1}]", f"omega = {omegas[i]:.17g}", "",
                  f"[coefficients {i + 1}]", "kind = tabulated",
                  f"path = {table.resolve()}", ""]
    lines.append("[coupling]")
    lines += [f"beta {i + 1} {i + 2} = {b:.17g}" for i, b in enumerate(betas)]
    lines += ["", "[integration]", f"t_end = {t_end:g}", "output_dt = 0.01",
              "rtol = 1e-9", "atol = 1e-12"]
    scenario = directory / "chain.scn"
    scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return scenario

