import dataclasses
import warnings

import numpy as np
import pytest

from oscibath.model import (
    BathSpec,
    BathStatistics,
    CouplingNetwork,
    InvalidConfig,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
    TimeSeries,
)


def single_config(**overrides) -> SimulationConfig:
    fields = dict(
        oscillators=(OscillatorSpec(omega=1.0, n0=0.0, v0=0.0),),
        provider_config=(ProviderConfig("constant", {"lambda": 0.1, "D": 0.05}),),
        coupling=CouplingNetwork.none(1),
        t_end=50.0,
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


def pair_config(beta: np.ndarray, **overrides) -> SimulationConfig:
    fields = dict(
        oscillators=(OscillatorSpec(1.0), OscillatorSpec(1.5)),
        provider_config=(ProviderConfig("constant", {"lambda": 0.1, "D": 0.05}),) * 2,
        coupling=CouplingNetwork(n=2, beta=beta),
        t_end=50.0,
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


def test_accepts_minimal_single_oscillator():
    coupling = CouplingNetwork.none(1)
    config = single_config(coupling=coupling)
    assert config.coupling is coupling


def test_rejects_negative_n0():
    with pytest.raises(InvalidConfig, match="n0 negative"):
        single_config(oscillators=(OscillatorSpec(omega=1.0, n0=-0.1),))


def test_rejects_nonpositive_omega():
    with pytest.raises(InvalidConfig, match="omega not positive"):
        single_config(oscillators=(OscillatorSpec(omega=-1.0),))


def test_symmetrizes_tiny_asymmetry():
    beta = np.array([[0.0, 0.3], [0.3 + 1e-13, 0.0]])
    validated = pair_config(beta)
    expected = (0.3 + (0.3 + 1e-13)) / 2.0
    assert validated.coupling.beta[0, 1] == expected
    assert validated.coupling.beta[1, 0] == expected


def test_rejects_large_asymmetry():
    beta = np.array([[0.0, 0.3], [0.31, 0.0]])
    with pytest.raises(InvalidConfig, match="beta not symmetric"):
        pair_config(beta)


def test_rejects_nonzero_diagonal():
    beta = np.array([[0.1, 0.3], [0.3, 0.0]])
    with pytest.raises(InvalidConfig, match="beta diagonal not zero"):
        pair_config(beta)


def test_rejects_negative_beta():
    beta = np.array([[0.0, -0.3], [-0.3, 0.0]])
    with pytest.raises(InvalidConfig, match="beta negative"):
        pair_config(beta)


def test_rejects_coupling_size_mismatch():
    with pytest.raises(InvalidConfig, match="coupling size"):
        single_config(coupling=CouplingNetwork.none(2))


@pytest.mark.parametrize("overrides,message", [
    (dict(t_end=0.0), "t_end not positive"),
    (dict(output_dt=-0.01), "output_dt not positive"),
    (dict(output_dt=60.0), "output_dt exceeds t_end"),
    (dict(rtol=0.0), "rtol not positive"),
    (dict(atol=-1e-12), "atol not positive"),
    # A ratio that overflows, and one of 2**53, from where k * output_dt
    # may no longer increase strictly: neither grid is built.
    (dict(t_end=1e300, output_dt=1e-300), r"t_end / output_dt not below 2\*\*53"),
    (dict(t_end=2.0**52, output_dt=0.5), r"t_end / output_dt not below 2\*\*53"),
])
def test_rejects_bad_integration_fields(overrides, message):
    with pytest.raises(InvalidConfig, match=message):
        single_config(**overrides)


@pytest.mark.parametrize("bath,message", [
    (BathSpec(BathStatistics.FERMIONIC, temperature=-0.1, coupling=0.1, cutoff=10.0),
     "temperature negative"),
    (BathSpec(BathStatistics.BOSONIC, temperature=1.0, coupling=0.0, cutoff=10.0),
     "coupling not positive"),
    (BathSpec(BathStatistics.BOSONIC, temperature=1.0, coupling=0.1, cutoff=-1.0),
     "cutoff not positive"),
])
def test_rejects_bad_bath_metadata(bath, message):
    with pytest.raises(InvalidConfig, match=message):
        single_config(baths=((bath,),))


BATH = BathSpec(BathStatistics.BOSONIC, temperature=1.0, coupling=0.1, cutoff=10.0)


@pytest.mark.parametrize("overrides,message", [
    (dict(provider_config=(ProviderConfig("constant", {"lambda": 0.1, "D": 0.05}),)),
     "provider_config count mismatch"),
    (dict(baths=((BATH,),)), "baths count mismatch"),
    (dict(baths=((), (), ())), "baths count mismatch"),
])
def test_rejects_count_mismatch(overrides, message):
    with pytest.raises(InvalidConfig, match=message):
        pair_config(np.zeros((2, 2)), **overrides)


def test_all_empty_baths_are_no_baths():
    # A scenario file has no way to write them, so they would not round-trip.
    assert single_config(baths=((),)).baths == ()
    assert pair_config(np.zeros((2, 2)), baths=((), (BATH,))).baths == ((), (BATH,))


def test_validation_is_idempotent():
    beta = np.array([[0.0, 0.3], [0.3 + 1e-13, 0.0]])
    once = pair_config(beta)
    twice = dataclasses.replace(once)
    assert once == twice
    assert twice.coupling == once.coupling


def test_coupling_matrix_is_read_only():
    net = CouplingNetwork.uniform(3, 0.2)
    with pytest.raises(ValueError):
        net.beta[0, 1] = 0.5


def test_provider_config_params_are_sorted_and_hashable():
    a = ProviderConfig("constant", {"lambda": 0.1, "D": 0.05})
    b = ProviderConfig("constant", {"D": 0.05, "lambda": 0.1})
    assert a == b
    assert hash(a) == hash(b)
    assert a.as_dict() == {"lambda": 0.1, "D": 0.05}


def test_timeseries_rejects_nonuniform_grid():
    t = np.array([0.0, 0.01, 0.03])
    flat = np.zeros((1, 3))
    with pytest.raises(ValueError, match="uniform"):
        TimeSeries(t=t, n=flat, v=flat, friction=flat, diffusion=flat)


@pytest.mark.parametrize("times, message", [
    ([0.0, 0.01, np.inf], "grid not finite"),
    ([np.inf, np.inf, 0.02], "grid not finite"),
    ([-np.inf, 0.01, 0.02], "grid not finite"),
    ([np.nan, 0.01, 0.02], "grid not finite"),
    ([-1.7e308, 1.7e308, 1.75e308], "grid spacing not uniform"),
    ([-1.7e308, 1.7e308], "grid spacing not uniform"),
])
def test_timeseries_rejects_non_finite_times_without_warnings(times, message):
    # A last time of inf passed as a grid whose every step is within
    # GRID_SLACK of inf; the others warned in numpy before they failed.
    flat = np.zeros((1, len(times)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            TimeSeries(t=times, n=flat, v=flat, friction=flat, diffusion=flat)


def test_timeseries_rejects_length_mismatch():
    t = np.arange(5) * 0.01
    with pytest.raises(ValueError, match="length"):
        TimeSeries(t=t, n=np.zeros((1, 4)), v=np.zeros((1, 5)),
                   friction=np.zeros((1, 5)), diffusion=np.zeros((1, 5)))


@pytest.mark.parametrize("channel", ["v", "friction", "diffusion"])
@pytest.mark.parametrize("rows", [1, 3])
def test_timeseries_rejects_oscillator_count_mismatch(channel, rows):
    t = np.arange(5) * 0.01
    arrays = {name: np.zeros((2, 5)) for name in ("n", "v", "friction",
                                                  "diffusion")}
    arrays[channel] = np.zeros((rows, 5))
    with pytest.raises(ValueError, match=f"channel {channel} has {rows} "
                                         "oscillators, n has 2"):
        TimeSeries(t=t, **arrays)


def test_timeseries_copies_every_array():
    t = np.arange(5) * 0.01
    n = np.zeros((1, 5))
    series = TimeSeries(t=t, n=n, v=n, friction=n, diffusion=n)
    assert t.flags.writeable and n.flags.writeable
    t[0] = -1.0
    n[0, 0] = 7.0
    assert series.t[0] == 0.0 and series.n[0, 0] == 0.0
    assert not series.t.flags.writeable
