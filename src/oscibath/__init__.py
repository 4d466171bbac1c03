"""Master-equation simulator for bosonic oscillators coupled to heat baths.

Integrates the occupation-number dynamics driven by time-dependent friction
and diffusion coefficients (a single oscillator in first-order form, or any
finite number of pairwise-coupled oscillators in second-order form, one
oscillator included) and analyzes the resulting non-stationary late-time
oscillations.  Each coefficient kind is one provider class, and a run's
samples are one ``TimeSeries``, whether an integrator returned it or it was
read back from a CSV.
"""

from .analysis import (
    AmbiguousPeriod,
    AnalysisError,
    EnvelopeReport,
    NoOscillation,
    OscillationReport,
    SyncReport,
    TooFewPeaks,
    TooShort,
    envelope,
    extract_period,
    synchronization_metrics,
)
from .coefficients import (
    ConstantProvider,
    OutOfRange,
    PhenomenologicalProvider,
    TabulatedProvider,
    make_provider,
)
from .csvio import CsvSchemaError, read_timeseries_csv, write_timeseries_csv
from .integrator import (
    IntegratorError,
    PositivityViolation,
    StepSizeUnderflow,
    integrate_coupled,
    integrate_single_first_order,
)
from .model import (
    BathSpec,
    BathStatistics,
    CoefficientSample,
    CouplingNetwork,
    InvalidConfig,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
    TimeSeries,
)
from .scenario import load_scenario, parse_scenario, serialize_scenario

__version__ = "0.1.0"
