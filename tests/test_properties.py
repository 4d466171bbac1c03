"""Property tests over generated configurations (needs ``hypothesis``)."""

import dataclasses
import math

import numpy as np
import pytest

from oscibath.coefficients import PhenomenologicalProvider
from oscibath.integrator import integrate_coupled, integrate_single_first_order
from oscibath.model import (
    BathSpec,
    BathStatistics,
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)
from oscibath.scenario import parse_scenario, serialize_scenario

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

TWO_PI = 2.0 * math.pi

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, max_value=1e6)
positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
phase = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


@st.composite
def symmetric_beta(draw, n, high=1e6):
    beta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            beta[i, j] = beta[j, i] = draw(st.floats(0.0, high))
    return beta


@st.composite
def phenomenological(draw, omega=None):
    mean_lambda = draw(st.floats(0.05, 0.3))
    return PhenomenologicalProvider(
        mean_lambda=mean_lambda,
        amp_lambda=draw(st.floats(0.0, 0.9 * mean_lambda)),
        mean_D=draw(st.floats(0.0, 0.1)),
        amp_D=draw(st.floats(0.0, 0.1)),
        osc_freq=draw(st.floats(0.5, 3.0)) if omega is None else omega,
        phase_lambda=draw(phase), phase_D=draw(phase),
        ramp_time=draw(st.floats(0.2, 1.0)))


path = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_./-]{0,30}", fullmatch=True)
provider_config = st.one_of(
    st.builds(lambda lam, d: ProviderConfig("constant", {"lambda": lam, "D": d}),
              finite, finite),
    phenomenological().map(lambda p: p.describe()),
    st.builds(lambda p: ProviderConfig("tabulated", {"path": p}), path),
)
bath = st.builds(BathSpec, st.sampled_from(BathStatistics), non_negative,
                 positive, positive)


@st.composite
def configs(draw):
    n = draw(st.integers(1, 4))
    oscillators = tuple(OscillatorSpec(draw(positive), draw(non_negative),
                                       draw(finite)) for _ in range(n))
    baths = ()
    if draw(st.booleans()):
        baths = tuple(tuple(draw(st.lists(bath, max_size=2))) for _ in range(n))
    t_end = draw(st.floats(1e-3, 1e6))
    return SimulationConfig(
        oscillators=oscillators,
        provider_config=tuple(draw(provider_config) for _ in range(n)),
        coupling=CouplingNetwork(n=n, beta=draw(symmetric_beta(n))),
        t_end=t_end,
        output_dt=t_end * draw(st.floats(1e-6, 1.0)),
        rtol=draw(positive), atol=draw(positive),
        baths=baths)


@settings(max_examples=50, deadline=None)
@given(configs())
def test_serialize_parse_round_trip(config):
    text = serialize_scenario(config)
    again = parse_scenario(text)
    assert again == config
    assert serialize_scenario(again) == text


@st.composite
def coupled_runs(draw, max_n=6, beta_high=2.0, rtol=1e-9):
    n = draw(st.integers(2, max_n))
    omegas = [draw(st.floats(0.5, 3.0)) for _ in range(n)]
    providers = [draw(phenomenological(omega)) for omega in omegas]
    config = SimulationConfig(
        oscillators=tuple(OscillatorSpec(omega, draw(st.floats(0.0, 1.0)),
                                         draw(st.floats(-0.5, 0.5)))
                          for omega in omegas),
        provider_config=tuple(p.describe() for p in providers),
        coupling=CouplingNetwork(n=n, beta=draw(symmetric_beta(n, high=beta_high))),
        t_end=10.0, rtol=rtol)
    return config, providers


@settings(max_examples=10, deadline=None)
@given(coupled_runs())
def test_symmetric_coupling_conserves_linear_sum(run):
    # d/dt (v_i + 2 lam_i n_i - 2 D_i) = -(L n)_i, and the columns of the
    # Laplacian of a symmetric beta sum to zero.
    config, providers = run
    ts = integrate_coupled(config, providers)
    total = (ts.v + 2.0 * ts.friction * ts.n - 2.0 * ts.diffusion).sum(axis=0)
    assert np.abs(total - total[0]).max() <= 1e-7


@settings(max_examples=5, deadline=None)
@given(coupled_runs(max_n=5, beta_high=0.0, rtol=1e-12))
def test_zero_coupling_decouples_every_channel(run):
    # Acceptance criterion 3 for random N: each channel is its own
    # one-oscillator run, to the same bound.
    config, providers = run
    both = integrate_coupled(config, providers)
    for i, (osc, pc) in enumerate(zip(config.oscillators, config.provider_config)):
        alone = integrate_coupled(dataclasses.replace(
            config, oscillators=(osc,), provider_config=(pc,),
            coupling=CouplingNetwork.none(1)), [providers[i]])
        assert np.abs(both.n[i] - alone.n[0]).max() <= 1e-9


@settings(max_examples=5, deadline=None)
@given(coupled_runs(rtol=1e-12), st.data())
def test_permuting_the_oscillators_permutes_the_channels(run, data):
    # Reordering changes only the rounding of the coupling sums and of the
    # error norm.  At rtol 1e-9 that rounding flips an accept/reject
    # decision in about 1 of 300 generated runs, and the two solves then
    # part by up to their own global error (1.5e-10 seen); at rtol 1e-12
    # the generated runs reject no step and agree to ~1e-14.
    config, providers = run
    perm = data.draw(st.permutations(range(config.n_oscillators)))
    permuted = dataclasses.replace(
        config,
        oscillators=tuple(config.oscillators[p] for p in perm),
        provider_config=tuple(config.provider_config[p] for p in perm),
        coupling=CouplingNetwork(n=len(perm),
                                 beta=config.coupling.beta[np.ix_(perm, perm)]))
    ts = integrate_coupled(config, providers)
    ts_p = integrate_coupled(permuted, [providers[p] for p in perm])
    assert np.abs(ts_p.n - ts.n[perm]).max() <= 1e-12


magnitude = st.floats(0.0, 10.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(magnitude, magnitude, magnitude, magnitude, st.floats(0.05, 20.0),
       phase, phase,
       st.floats(0.01, 10.0), st.floats(0.0, 20.0))
def test_phenomenological_repeats_from_periodic_from(
        mean_lambda, amp_lambda, mean_D, amp_D, osc_freq, phase_lambda,
        phase_D, ramp_time, periods):
    # Past periodic_from the ramp is 1.0 (to an ulp), and what is left of
    # its slope is below an ulp of mean/ramp_time.  The cosine's argument
    # carries an ulp of omega * t.
    provider = PhenomenologicalProvider(
        mean_lambda, amp_lambda, mean_D, amp_D, osc_freq, phase_lambda,
        phase_D, ramp_time, allow_negative_friction=True)
    period = TWO_PI / osc_freq
    t = provider.periodic_from + periods * period
    a, b = provider(t), provider(t + period)
    growth = 1.0 + osc_freq * (t + period)
    ulp = 4.0 * 2.0 ** -52
    for value, slope, size in (("friction", "dfriction_dt", mean_lambda + amp_lambda),
                               ("diffusion", "ddiffusion_dt", mean_D + amp_D)):
        assert abs(getattr(a, value) - getattr(b, value)) <= ulp * size * growth
        assert (abs(getattr(a, slope) - getattr(b, slope))
                <= ulp * size * (osc_freq * growth + 1.0 / ramp_time))


@st.composite
def commensurate_runs(draw):
    n = draw(st.integers(1, 3))
    freqs = [draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0))) for _ in range(n)]
    providers = [draw(phenomenological(f)) for f in freqs]
    config = SimulationConfig(
        oscillators=tuple(OscillatorSpec(f, draw(st.floats(0.0, 1.0)),
                                         draw(st.floats(-0.5, 0.5)))
                          for f in freqs),
        provider_config=tuple(p.describe() for p in providers),
        coupling=CouplingNetwork(n=n, beta=draw(symmetric_beta(n, high=2.0))),
        t_end=60.0, rtol=1e-12)
    return config, providers


@settings(max_examples=5, deadline=None)
@given(commensurate_runs())
def test_periodic_tail_agrees_with_stepping(run):
    # Every generated run has a common period of at most 4 pi from
    # t <= 6.2, so at least four whole periods follow and the tail runs.
    config, providers = run
    tail = integrate_coupled(config, providers)
    stepped = integrate_coupled(config, [lambda t, p=p: p(t) for p in providers])
    assert tail.diagnostics["periods_propagated"] >= 1
    assert stepped.diagnostics["periods_propagated"] == 0
    assert np.abs(tail.n - stepped.n).max() <= 1e-9

    # The first-order equation of the first oscillator takes the tail too.
    osc, provider = config.oscillators[0], providers[0]
    tail, stepped = (integrate_single_first_order(osc, p, config.t_end,
                                                  rtol=config.rtol)
                     for p in (provider, lambda t: provider(t)))
    assert tail.diagnostics["periods_propagated"] >= 1
    assert stepped.diagnostics["periods_propagated"] == 0
    assert np.abs(tail.n - stepped.n).max() <= 1e-9
