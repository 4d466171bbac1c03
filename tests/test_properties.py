"""Property tests over generated configurations (needs ``hypothesis``)."""

import contextlib
import dataclasses
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from oscibath.analysis import (
    AnalysisError,
    envelope,
    extract_period,
    synchronization_metrics,
)
from oscibath.cli import main
from oscibath.coefficients import (
    KINDS,
    PhenomenologicalProvider,
    TabulatedProvider,
    _spline_kernel,
)
from oscibath.integrator import integrate_coupled, integrate_single_first_order
from oscibath.model import (
    BathSpec,
    BathStatistics,
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)
from oscibath.scenario import (
    _BATH_KEYS,
    demo_fig4_scenario,
    parse_scenario,
    serialize_scenario,
)

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


@st.composite
def superposed_runs(draw):
    """Runs A, B and C on one friction, frequency and coupling, every v0 = 0:
    A and B draw their own n0 and D, and C's are the sums of theirs."""
    n = draw(st.integers(1, 3))
    omegas = [draw(st.floats(0.5, 3.0)) for _ in range(n)]
    friction = [draw(phenomenological(omega)) for omega in omegas]
    beta = draw(symmetric_beta(n, high=2.0))
    drives = [[(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.1)),
                draw(st.floats(0.0, 0.1))) for _ in range(n)] for _ in "ab"]
    drives.append([tuple(map(sum, zip(a, b))) for a, b in zip(*drives)])
    runs = []
    for drive in drives:
        providers = [dataclasses.replace(p, mean_D=mean_D, amp_D=amp_D)
                     for p, (_, mean_D, amp_D) in zip(friction, drive)]
        runs.append((SimulationConfig(
            oscillators=tuple(OscillatorSpec(omega, n0)
                              for omega, (n0, _, _) in zip(omegas, drive)),
            provider_config=tuple(p.describe() for p in providers),
            coupling=CouplingNetwork(n=n, beta=beta), t_end=20.0), providers))
    return runs


@settings(max_examples=10, deadline=None)
@given(superposed_runs())
def test_solution_is_linear_in_initial_state_and_diffusion(runs):
    # With lambda(t) and beta fixed the equations are linear in (n0, v0, D),
    # so n_C = n_A + n_B up to the three solves' own errors, each about
    # rtol times its largest |n| or |v| plus atol.  Over 750 draws at the
    # default tolerances the difference reached 1.06 times the sum of those
    # three.  10 leaves room, and the bound stays some 1e7 times below the
    # solutions themselves.
    a, b, c = (integrate_coupled(config, providers) for config, providers in runs)
    config = runs[0][0]
    scale = sum(max(np.abs(s.n).max(), np.abs(s.v).max()) for s in (a, b, c))
    bound = 10.0 * (config.rtol * scale + 3.0 * config.atol)
    assert np.abs(c.n - (a.n + b.n)).max() <= bound


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


def _uncoupled_run(*pairs):
    """A commensurate_runs draw without coupling: (oscillator, provider)
    pairs, t_end 60 and rtol 1e-12."""
    oscillators, providers = zip(*pairs)
    return SimulationConfig(
        oscillators=oscillators,
        provider_config=tuple(p.describe() for p in providers),
        coupling=CouplingNetwork.none(len(pairs)), t_end=60.0,
        rtol=1e-12), list(providers)


def _first_order_reference(osc, provider, t):
    """The first-order run's n on t by scipy's DOP853 at rtol 1e-13 and
    steps of at most 0.5 (see test_integrator.dop853_reference)."""
    from scipy.integrate import solve_ivp

    def rhs(time, y):
        s = provider(time)
        return [-2.0 * s.friction * y[0] + 2.0 * s.diffusion]

    return solve_ivp(rhs, (0.0, t[-1]), [osc.n0], method="DOP853",
                     rtol=1e-13, atol=1e-16, max_step=0.5, t_eval=t).y


@settings(max_examples=5, deadline=None)
@given(commensurate_runs())
# Two draws whose stepped first-order run is 5.5e-9 and 1.9e-9 from the
# tail between its step starts: its quartic dense output over steps up to
# 0.38 long, not the tail, misses the 1e-9 there.
@hypothesis.example(_uncoupled_run((
    OscillatorSpec(0.5, 0.3359375, 0.0),
    PhenomenologicalProvider(
        mean_lambda=0.121232248322199, amp_lambda=1e-05,
        mean_D=0.06939070279491456, amp_D=0.06458431505986097, osc_freq=0.5,
        phase_lambda=0.75, phase_D=0.0, ramp_time=0.796875))))
@hypothesis.example(_uncoupled_run(
    (OscillatorSpec(2.0, 0.5915158925213314, 0.0), PhenomenologicalProvider(
        mean_lambda=0.265625, amp_lambda=0.1, mean_D=0.023578316583367804,
        amp_D=0.042469432023081566, osc_freq=2.0, phase_D=4.616561565611407,
        ramp_time=0.7730953235683498)),
    (OscillatorSpec(0.5), PhenomenologicalProvider(
        mean_lambda=0.25, amp_lambda=0.0, mean_D=0.0, amp_D=0.0,
        osc_freq=0.5))))
def test_periodic_tail_agrees_with_stepping(run):
    # Every generated run has a common period of at most 4 pi from
    # t <= 6.2 and runs to t_end 60, past t_p + T, so the tail runs.
    config, providers = run
    tail = integrate_coupled(config, providers)
    stepped = integrate_coupled(config, [lambda t, p=p: p(t) for p in providers])
    assert tail.diagnostics["periods_propagated"] >= 1
    assert stepped.diagnostics["periods_propagated"] == 0
    assert np.abs(tail.n - stepped.n).max() <= 1e-9

    # The first-order equation of the first oscillator takes the tail too,
    # and is held to DOP853 rather than to its stepped run's samples.
    osc, provider = config.oscillators[0], providers[0]
    tail, stepped = (integrate_single_first_order(osc, p, config.t_end,
                                                  rtol=config.rtol)
                     for p in (provider, lambda t: provider(t)))
    assert tail.diagnostics["periods_propagated"] >= 1
    assert stepped.diagnostics["periods_propagated"] == 0
    reference = _first_order_reference(osc, provider, tail.t)
    assert np.abs(tail.n - reference).max() <= 1e-9


@st.composite
def harmonic_runs(draw):
    # w0 = m/32 keeps every k * w0 exact in binary, so the common period is
    # 2 pi / (gcd(k) w0) <= 4 pi; t_p <= 6.2 (ramp_time <= 1), so
    # t_end >= 60 maps at least four of the periods after t_p.
    n = draw(st.integers(1, 3))
    w0 = draw(st.integers(16, 48)) / 32
    freqs = [draw(st.sampled_from((1, 2, 3))) * w0 for _ in range(n)]
    providers = [draw(phenomenological(f)) for f in freqs]
    config = SimulationConfig(
        oscillators=tuple(OscillatorSpec(f, draw(st.floats(0.0, 1.0)),
                                         draw(st.floats(-0.5, 0.5)))
                          for f in freqs),
        provider_config=tuple(p.describe() for p in providers),
        coupling=CouplingNetwork(n=n, beta=draw(symmetric_beta(n, high=2.0))),
        t_end=draw(st.floats(60.0, 100.0)), rtol=1e-9)
    return config, providers


def _tiny_drive_run():
    """One undriven oscillator at rest whose D oscillates at 1e-288: the
    solution stays far below atol, where neither solve has relative
    accuracy (a falsifying draw of the rtol-only bound)."""
    provider = PhenomenologicalProvider(mean_lambda=0.05, amp_lambda=0.0,
                                        mean_D=0.0, amp_D=1e-288,
                                        osc_freq=1.0, ramp_time=0.2)
    config = SimulationConfig(
        oscillators=(OscillatorSpec(1.0, 0.0, 0.0),),
        provider_config=(provider.describe(),),
        coupling=CouplingNetwork.none(1), t_end=60.0, rtol=1e-9)
    return config, [provider]


@settings(max_examples=12, deadline=None)
@given(harmonic_runs())
@hypothesis.example(_tiny_drive_run())
def test_tail_and_stepping_through_one_solve_agree(run):
    config, providers = run
    tail = integrate_coupled(config, providers)
    stepped = integrate_coupled(config, [lambda t, p=p: p(t) for p in providers])
    assert tail.diagnostics["periods_propagated"] >= 4
    assert stepped.diagnostics["periods_propagated"] == 0
    assert set(tail.diagnostics) ^ set(stepped.diagnostics) == {
        "floquet_multipliers"}
    # Each solve holds its local error to about atol + rtol of the state,
    # and the flow, whose Floquet multipliers are at most 1, does not
    # amplify it, so the two differ by a modest multiple of
    # rtol * max |(n, v)| + atol: at most 12.9 over 40 seeded runs (t_end
    # 40-120, rtol 1e-9) and 4.3 over 60 draws of harmonic_runs.  50 is
    # four times the worst of them, and still some 1e6 times below a
    # wrongly mapped sample, which misses by a share of the oscillation
    # itself.  The atol term matters only for a solution far below
    # atol / rtol, such as the example above, where both solves stop at
    # the absolute tolerance.
    difference = max(np.abs(tail.n - stepped.n).max(),
                     np.abs(tail.v - stepped.v).max())
    scale = max(np.abs(stepped.n).max(), np.abs(stepped.v).max())
    assert difference <= 50.0 * (config.rtol * scale + config.atol)


@st.composite
def tables_on_a_ragged_grid(draw):
    """1 to 8 tables on one grid whose spacings jump by more than 2x, so
    that the tridiagonal solve interchanges rows (first at row 0)."""
    n = draw(st.integers(4, 24))
    dx = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    dx[1] = dx[0] * draw(st.floats(2.5, 40.0))
    grid = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(dx)])
    value = st.floats(-10.0, 10.0)
    k = draw(st.integers(1, 8))
    columns = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                            min_size=2 * k, max_size=2 * k))
    return [TabulatedProvider(grid=grid, lambda_values=np.array(lam),
                              D_values=np.array(dif))
            for lam, dif in zip(columns[:k], columns[k:])]


@settings(max_examples=100, deadline=None)
@given(tables_on_a_ragged_grid())
def test_one_fit_over_tables_on_one_grid_is_each_tables_fit(tables):
    from test_coefficients import scipy_coefficients

    knots, lo, hi, slack, coefs = _spline_kernel(tables)
    assert coefs.shape == (tables[0].grid.size - 1, 14, len(tables))
    for k, table in enumerate(tables):
        assert np.array_equal(coefs[..., k].view(np.uint64),
                              table._kernel[4].view(np.uint64))
        assert np.array_equal(coefs[..., k], scipy_coefficients(table))
        assert (knots, lo, hi, slack) == table._kernel[:4]


@st.composite
def spiked_series(draw):
    """A noisy sine of 64 to 400 samples and random scale, with up to four
    cells replaced by values of any magnitude up to 1e308."""
    m = draw(st.integers(64, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = 0.01 * np.arange(m)
    x = (np.sin(draw(st.floats(1.0, 30.0)) * t)
         + 10.0 ** draw(st.integers(-12, 2)) * rng.normal(size=m))
    for _ in range(draw(st.integers(0, 4))):
        x[draw(st.integers(0, m - 1))] = (
            draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 9.99))
            * 10.0 ** draw(st.integers(-300, 307)))
    return t, x


@settings(max_examples=50, deadline=None)
@given(spiked_series())
def test_estimators_return_or_name_what_they_cannot_process(series):
    t, x = series
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimate in (lambda: extract_period(t, x), lambda: envelope(t, x),
                         lambda: synchronization_metrics(t, x, x[::-1])):
            try:
                estimate()
            except AnalysisError:
                pass


# Generated command lines.  A valid scenario comes from the grammar: its
# coefficient sections from KINDS, the rest from the model's fields and the
# bath keys, every number in [0.05, 1] (valid for every key, negative
# friction allowed) and every run to t_end <= 5 on a grid of at most 500
# samples.  Mutations then break it as a user might.
number = st.floats(0.05, 1.0).map(lambda x: format(x, ".3g"))
BAD_TOKENS = ["nan", "inf", "-1", "1e400", "", "01"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A directory holding a coefficient table over [0, 5] and the CSV of a
    fig4 run to t_end 10."""
    root = tmp_path_factory.mktemp("commands")
    table = root / "table.csv"
    table.write_text("t,lambda,D\n" + "".join(
        f"{t:g},{0.2 + 0.05 * math.cos(2 * t)!r},{0.05 + 0.02 * math.sin(2 * t)!r}\n"
        for t in np.linspace(0.0, 5.0, 11)))
    scn = root / "fig4.scn"
    scn.write_text(demo_fig4_scenario("0.5").replace("t_end = 80", "t_end = 10"))
    assert run_main(["simulate", str(scn), str(root / "fig4.csv")])[0] == 0
    return root


@st.composite
def scenario_lines(draw, table):
    """The lines of a valid scenario of 1 to 3 oscillators."""
    n = draw(st.integers(1, 3))

    def section(name, items):
        return [f"[{name}]"] + [f"{key} = {value}" for key, value in items] + [""]

    def optional(keys, required):
        return [key for key in keys if key in required or draw(st.booleans())]

    osc_keys = [f.name for f in dataclasses.fields(OscillatorSpec)]
    lines = []
    for i in range(1, n + 1):
        lines += section(f"oscillator {i}", [(key, draw(number)) for key in
                                             optional(osc_keys, ["omega"])])
        kind = draw(st.sampled_from(sorted(KINDS)))
        spec = KINDS[kind]
        lines += section(f"coefficients {i}", [("kind", kind)] + [
            (key, table if key in spec.text else "true" if key in spec.flags
             else draw(number))
            for key in optional(spec.keys, spec.required + spec.flags)])
        for j in range(1, draw(st.integers(0, 2)) + 1):
            lines += section(f"bath {i} {j}", [
                (key, draw(st.sampled_from([s.value for s in BathStatistics]))
                 if key == "statistics" else draw(number)) for key in _BATH_KEYS])
    if n > 1:
        lines += section("coupling", [(f"beta {i} {j}", draw(number))
                                      for i in range(1, n + 1)
                                      for j in range(i + 1, n + 1)
                                      if draw(st.booleans())])
    # output_dt <= 0.5 <= t_end <= 5: at most 500 samples.
    integration = [("t_end", format(draw(st.floats(0.5, 5.0)), ".3g"))]
    if draw(st.booleans()):
        integration.append(("output_dt", format(draw(st.floats(0.01, 0.5)), ".3g")))
    integration += [(key, format(getattr(SimulationConfig, key), "g"))
                    for key in optional(["rtol", "atol"], ())]
    return lines + section("integration", integration)


@st.composite
def mutated(draw, lines):
    """lines broken by up to three mutations, each a line deleted,
    duplicated or truncated, a value set to a bad token, an index respelled
    (9 is out of range) or a [DEFAULT] section added; last, perhaps, a grid
    of 2**53 samples or more, which a config refuses before it is allocated:
    no earlier mutation can cut 1e300 down to a grid that would be built."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["delete", "duplicate", "truncate", "value",
                                    "index", "default"]))
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        if how == "delete":
            del lines[k]
        elif how == "duplicate":
            lines.insert(k, line)
        elif how == "truncate":
            lines[k] = line[:draw(st.integers(0, max(len(line) - 1, 0)))]
        elif how == "value" and " = " in line:
            lines[k] = line.split(" = ")[0] + " = " + draw(st.sampled_from(BAD_TOKENS))
        elif how == "index":
            numbered = [m for m, text in enumerate(lines) if re.fullmatch(
                r"\[(oscillator|coefficients|bath) .*\]|beta .*", text.split(" = ")[0])]
            if numbered:
                m = draw(st.sampled_from(numbered))
                index = draw(st.sampled_from(re.findall(r"\d+", lines[m])))
                spelling = draw(st.sampled_from(
                    ["0" + index, index.translate(ARABIC_INDIC), "0", "9"]))
                lines[m] = lines[m].replace(f" {index}", f" {spelling}", 1)
        elif how == "default":
            lines.insert(draw(st.sampled_from([0, len(lines)])), "[DEFAULT]\nn0 = 0\n")
    if draw(st.integers(0, 3)) == 0:
        lines = [("t_end = 1e300" if line.startswith("t_end = ") else
                  "output_dt = 1e-300" if line.startswith("output_dt = ") else line)
                 for line in lines]
    return "\n".join(lines) + "\n"


def run_main(argv):
    """cli.main's exit code, stdout and stderr; no warning may be raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, out.getvalue(), err.getvalue()


def assert_exit_names(code, err, path):
    """Exit 0 says nothing; a failure is one line naming the input, and an
    inconclusive analysis one line per metric."""
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines(keepends=True)
    assert code in (1, 2, 3) and lines
    assert all(line.startswith("oscibath: ") and line.endswith("\n")
               for line in lines)
    assert code == 3 or len(lines) == 1
    if code == 1:
        assert str(path) in err


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_generated_scenarios_exit_cleanly(command_inputs, data):
    table = str(command_inputs / "table.csv")
    text = data.draw(mutated(data.draw(scenario_lines(table))))
    with tempfile.TemporaryDirectory() as work:
        scn = Path(work) / "run.scn"
        scn.write_text(text, encoding="utf-8")
        code, _, err = run_main(["simulate", str(scn), str(Path(work) / "run.csv")])
    assert code in (0, 1, 2)
    assert_exit_names(code, err, scn)


# Each parameter's good values; coupling.beta, last, needs a pair.
SWEEPS = {"integration.rtol": ("1e-6", "1e-8"),
          "oscillator.1.omega": ("0.5", "1"), "coupling.beta": ("0.1", "0.5")}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sweep_fails_only_its_bad_member(command_inputs, data):
    lines = data.draw(scenario_lines(str(command_inputs / "table.csv")))
    pairs = sum(line.startswith("[oscillator ") for line in lines) > 1
    param = data.draw(st.sampled_from(list(SWEEPS)[:3 if pairs else 2]))
    tokens = list(SWEEPS[param])
    bad = data.draw(st.sampled_from(["nan", "inf", "-1", "1e400", "x"]))
    tokens.insert(data.draw(st.integers(0, 2)), bad)
    with tempfile.TemporaryDirectory() as work:
        scn = Path(work) / "run.scn"
        scn.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_main(["sweep", str(scn), str(Path(work) / "sweep"),
                                   "--param", param, "--values=" + ",".join(tokens)])
    assert (code, err) == (0, "")
    for token in tokens:
        status = "failed: " if token == bad else "ok\n"
        assert f"{param} = {token}: {status}" in out


@st.composite
def mutated_csv(draw, lines):
    """A run's CSV lines broken by up to three mutations: a line deleted,
    duplicated or truncated, or one cell set to a bad token."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["delete", "duplicate", "truncate", "value"]))
        # The version line, the header, the first row or any line.
        k = draw(st.sampled_from([0, 1, 2, draw(st.integers(0, len(lines) - 1))]))
        if how == "delete":
            del lines[k]
        elif how == "duplicate":
            lines.insert(k, lines[k])
        elif how == "truncate":
            lines[k] = lines[k][:draw(st.integers(0, max(len(lines[k]) - 1, 0)))]
        else:
            cells = lines[k].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(BAD_TOKENS))
            lines[k] = ",".join(cells)
    return lines


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mutated_csvs_analyze_cleanly(command_inputs, data):
    source = (command_inputs / "fig4.csv").read_text().splitlines()
    lines = data.draw(mutated_csv(source))
    flags = data.draw(st.lists(
        st.sampled_from(["--period", "--envelope", "--sync=1,2"]), unique=True))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "run.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_main(["analyze", str(path), *flags])
    assert code in (0, 1, 3)
    assert_exit_names(code, err, path)
