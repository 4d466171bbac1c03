"""Plain-text scenario files: grammar, parsing, serialization, overrides.

A scenario is an INI-style sectioned key-value file (full-line ``#``
comments allowed):

    [oscillator <i>]        omega (required), n0, v0
    [coefficients <i>]      kind = constant | phenomenological | tabulated,
                            plus kind-specific keys; for phenomenological,
                            osc_freq defaults to the oscillator's omega
    [bath <i> <j>]          optional metadata: statistics, temperature,
                            alpha, gamma
    [coupling]              beta <i> <j> = value  (i < j; omitted pairs are 0)
    [integration]           t_end (required), output_dt, rtol, atol

Oscillator and coefficients sections must be numbered 1..N.  Serialization
is canonical (fixed section/key order, 17-significant-digit floats), so
parse -> serialize -> parse reproduces the config exactly.

Sweep overrides address raw scenario fields with dotted keys
(``integration.rtol``, ``oscillator.2.omega``, ``coefficients.1.mean_lambda``,
``coupling.beta`` for every pair, ``coupling.beta.1.2`` for one pair) and are
applied before the config is built, so derived defaults follow.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from enum import Enum
from pathlib import Path

import numpy as np

from .coefficients import KINDS
from .model import (
    BathSpec,
    BathStatistics,
    CouplingNetwork,
    InvalidConfig,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)

__all__ = [
    "Sections",
    "read_sections",
    "read_scenario",
    "build_config",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "apply_override",
    "demo_fig2_scenario",
    "demo_fig4_scenario",
    "DEMO_FIG4_BETAS",
]

Sections = dict[str, dict[str, str]]

_OSC_RE = re.compile(r"^oscillator (\d+)$")
_COEF_RE = re.compile(r"^coefficients (\d+)$")
_BATH_RE = re.compile(r"^bath (\d+) (\d+)$")
_BETA_KEY_RE = re.compile(r"^beta (\d+) (\d+)$")

# Keys absent from a section are left out of the constructor call, so the
# model dataclasses own every default.
_OSC_KEYS = ("omega", "n0", "v0")
#: Scenario key -> BathSpec field, in serialization order.
_BATH_KEYS = {"statistics": "statistics", "temperature": "temperature",
              "alpha": "coupling", "gamma": "cutoff"}
_INTEGRATION_KEYS = ("t_end", "output_dt", "rtol", "atol")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _float(section: str, key: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InvalidConfig(f"[{section}] {key}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise InvalidConfig(f"[{section}] {key}: not finite")
    return value


def _bool(section: str, key: str, token: str) -> bool:
    lowered = token.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise InvalidConfig(f"[{section}] {key}: not a boolean: {token!r}")


def read_sections(text: str) -> Sections:
    """Parse scenario text into an ordered section -> key -> raw-value map.

    A syntax error reads ``line N: '<line>' <reason>``, counting every line.
    """
    # No header spells the defaults section "", so [DEFAULT] is a section.
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"), strict=True,
        inline_comment_prefixes=None, interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive and keep their spacing
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # A ParsingError lists its lines in ``errors``; the others carry one.
        lineno = (getattr(exc, "lineno", None)
                  or (getattr(exc, "errors", None) or [(None,)])[0][0])
        if lineno is None:
            raise InvalidConfig(" ".join(str(exc).split())) from exc
        reason = {configparser.MissingSectionHeaderError: "precedes every section",
                  configparser.DuplicateSectionError: "repeats a section",
                  configparser.DuplicateOptionError: "repeats a key of its section",
                  }.get(type(exc), "is neither a section header nor 'key = value'")
        line = text.split("\n")[lineno - 1].strip()
        raise InvalidConfig(f"line {lineno}: {line!r} {reason}") from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _check_keys(section: str, body: dict[str, str], allowed,
                required=()) -> None:
    """Reject the first unknown key, then the first missing required key."""
    for key in body:
        if key not in allowed:
            raise InvalidConfig(f"[{section}] unknown key '{key}'")
    for key in required:
        if key not in body:
            raise InvalidConfig(f"[{section}] {key} missing")


def _contiguous_indices(found: dict[int, dict[str, str]], what: str) -> int:
    if not found:
        raise InvalidConfig(f"no {what} sections")
    n = len(found)
    if sorted(found) != list(range(1, n + 1)):
        raise InvalidConfig(f"{what} sections must be numbered 1..N")
    return n


def build_config(sections: Sections) -> SimulationConfig:
    """Assemble a SimulationConfig (which checks itself) from raw sections."""
    osc_raw: dict[int, dict[str, str]] = {}
    coef_raw: dict[int, dict[str, str]] = {}
    bath_raw: dict[int, dict[int, dict[str, str]]] = {}
    coupling_raw: dict[str, str] | None = None
    integration_raw: dict[str, str] | None = None

    for name, body in sections.items():
        if m := _OSC_RE.match(name):
            osc_raw[int(m.group(1))] = body
        elif m := _COEF_RE.match(name):
            coef_raw[int(m.group(1))] = body
        elif m := _BATH_RE.match(name):
            bath_raw.setdefault(int(m.group(1)), {})[int(m.group(2))] = body
        elif name == "coupling":
            coupling_raw = body
        elif name == "integration":
            integration_raw = body
        else:
            raise InvalidConfig(f"unknown section '{name}'")

    n = _contiguous_indices(osc_raw, "oscillator")
    if sorted(coef_raw) != sorted(osc_raw):
        raise InvalidConfig("coefficients sections must match oscillator sections")

    oscillators = []
    for i in range(1, n + 1):
        body = osc_raw[i]
        section = f"oscillator {i}"
        _check_keys(section, body, _OSC_KEYS, required=("omega",))
        oscillators.append(OscillatorSpec(**{
            key: _float(section, key, body[key])
            for key in _OSC_KEYS if key in body}))

    providers = []
    for i in range(1, n + 1):
        body = dict(coef_raw[i])
        section = f"coefficients {i}"
        kind = body.pop("kind", None)
        if kind is None:
            raise InvalidConfig(f"[{section}] kind missing")
        if kind not in KINDS:
            raise InvalidConfig(f"[{section}] unknown kind '{kind}'")
        spec = KINDS[kind]
        _check_keys(section, body, spec.keys, required=spec.required)
        params: dict[str, object] = {}
        for key, token in body.items():
            if key in spec.text:
                params[key] = token.strip()
            elif key in spec.flags:
                params[key] = _bool(section, key, token)
            else:
                params[key] = _float(section, key, token)
        if "osc_freq" in spec.keys and "osc_freq" not in params:
            params["osc_freq"] = oscillators[i - 1].omega
        providers.append(ProviderConfig(kind, params))

    baths: tuple[tuple[BathSpec, ...], ...] = ()
    if bath_raw:
        per_osc: list[tuple[BathSpec, ...]] = []
        for i in range(1, n + 1):
            entries = bath_raw.pop(i, {})
            if entries and sorted(entries) != list(range(1, len(entries) + 1)):
                raise InvalidConfig(f"bath sections for oscillator {i} "
                                    f"must be numbered 1..K")
            row = []
            for j in sorted(entries):
                body = entries[j]
                section = f"bath {i} {j}"
                _check_keys(section, body, _BATH_KEYS, required=_BATH_KEYS)
                try:
                    statistics = BathStatistics(body["statistics"].strip())
                except ValueError:
                    raise InvalidConfig(
                        f"[{section}] statistics must be fermionic or bosonic"
                    ) from None
                row.append(BathSpec(statistics, **{
                    name: _float(section, key, body[key])
                    for key, name in _BATH_KEYS.items() if key != "statistics"}))
            per_osc.append(tuple(row))
        if bath_raw:
            stray = sorted(bath_raw)[0]
            raise InvalidConfig(f"bath section for unknown oscillator {stray}")
        baths = tuple(per_osc)

    beta = np.zeros((n, n))
    if coupling_raw:
        seen: dict[tuple[int, int], float] = {}
        for key, token in coupling_raw.items():
            m = _BETA_KEY_RE.match(key)
            if not m:
                raise InvalidConfig(f"[coupling] unknown key '{key}'")
            i, j = int(m.group(1)), int(m.group(2))
            if i == j:
                raise InvalidConfig(f"[coupling] beta indices must differ: '{key}'")
            if not (1 <= i <= n and 1 <= j <= n):
                raise InvalidConfig(f"[coupling] oscillator index out of "
                                    f"range: '{key}'")
            value = _float("coupling", key, token)
            pair = (min(i, j), max(i, j))
            if pair in seen and seen[pair] != value:
                raise InvalidConfig(f"[coupling] conflicting entries for "
                                    f"pair {pair[0]} {pair[1]}")
            seen[pair] = value
        for (i, j), value in seen.items():
            beta[i - 1, j - 1] = value
            beta[j - 1, i - 1] = value

    if integration_raw is None:
        raise InvalidConfig("integration section missing")
    _check_keys("integration", integration_raw, _INTEGRATION_KEYS,
                required=("t_end",))
    return SimulationConfig(
        oscillators=tuple(oscillators),
        provider_config=tuple(providers),
        coupling=CouplingNetwork(n=n, beta=beta),
        baths=baths,
        **{key: _float("integration", key, integration_raw[key])
           for key in _INTEGRATION_KEYS if key in integration_raw},
    )


def parse_scenario(text: str) -> SimulationConfig:
    """Parse scenario text into a SimulationConfig."""
    return build_config(read_sections(text))


def read_scenario(path: str | Path) -> Sections:
    """Read a scenario file's sections; every error names the file."""
    where = f"scenario {path}"
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{where}: not UTF-8 ({exc.reason})") from exc
    try:
        return read_sections(text)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{where}: {exc}") from exc


def load_scenario(path: str | Path) -> SimulationConfig:
    """A scenario file's config; every error names the file."""
    sections = read_scenario(path)
    try:
        return build_config(sections)
    except InvalidConfig as exc:
        raise InvalidConfig(f"scenario {path}: {exc}") from exc


def serialize_scenario(config: SimulationConfig) -> str:
    """Canonical scenario text for a config."""
    out = io.StringIO()

    def section(name: str, items: list[tuple[str, object]]) -> None:
        out.write(f"[{name}]\n")
        for key, value in items:
            out.write(f"{key} = {_fmt(value)}\n")
        out.write("\n")

    for i, osc in enumerate(config.oscillators, start=1):
        section(f"oscillator {i}", [(key, getattr(osc, key)) for key in _OSC_KEYS])
        pc = config.provider_config[i - 1]
        if pc.kind not in KINDS:
            raise InvalidConfig("custom providers have no scenario representation")
        spec, params = KINDS[pc.kind], pc.as_dict()
        # Refuse what parse_scenario would refuse, with its message.
        _check_keys(f"coefficients {i}", params, spec.keys, required=spec.required)
        section(f"coefficients {i}", [("kind", pc.kind)] + [
            (key, params[key]) for key in spec.keys if key in params])
        if config.baths:
            for j, bath in enumerate(config.baths[i - 1], start=1):
                section(f"bath {i} {j}", [(key, getattr(bath, name))
                                          for key, name in _BATH_KEYS.items()])

    n = config.n_oscillators
    if n > 1:
        beta = config.coupling.beta
        section("coupling", [(f"beta {i} {j}", float(beta[i - 1, j - 1]))
                             for i in range(1, n + 1) for j in range(i + 1, n + 1)])

    section("integration", [(key, getattr(config, key))
                            for key in _INTEGRATION_KEYS])
    return out.getvalue()


def apply_override(sections: Sections, dotted: str, token: str) -> Sections:
    """Return a copy of the raw sections with one dotted-key override applied.

    The override touches the raw scenario representation, so anything derived
    during config building (for example a phenomenological osc_freq that
    tracks omega) follows the new value.
    """
    work = {name: dict(body) for name, body in sections.items()}
    parts = dotted.split(".")

    if parts[0] == "integration" and len(parts) == 2:
        work.setdefault("integration", {})[parts[1]] = token
        return work

    if parts[0] == "coupling":
        n = sum(1 for name in work if _OSC_RE.match(name))
        if parts[1:] == ["beta"]:
            work["coupling"] = {f"beta {i} {j}": token for i in range(1, n + 1)
                                for j in range(i + 1, n + 1)}
            return work
        if len(parts) == 4 and parts[1] == "beta":
            try:
                i, j = int(parts[2]), int(parts[3])
            except ValueError:
                raise InvalidConfig(f"cannot resolve override key '{dotted}'") from None
            lo, hi = min(i, j), max(i, j)
            body = work.setdefault("coupling", {})
            body.pop(f"beta {hi} {lo}", None)
            body[f"beta {lo} {hi}"] = token
            return work
        raise InvalidConfig(f"cannot resolve override key '{dotted}'")

    if parts[0] in ("oscillator", "coefficients") and len(parts) == 3:
        name = f"{parts[0]} {parts[1]}"
        if name not in work:
            raise InvalidConfig(f"override key '{dotted}': no section [{name}]")
        work[name][parts[2]] = token
        return work

    raise InvalidConfig(f"cannot resolve override key '{dotted}'")


#: Coupling strengths bundled with the fig4 demo.
DEMO_FIG4_BETAS = ("0.05", "0.2", "0.5")

_PI = format(math.pi, ".17g")


def demo_fig2_scenario() -> str:
    """Single-oscillator demo: non-stationary late-time oscillation.

    omega, n0, v0 and the bath entries follow the reference parameter set
    this demo is named for; the coefficient magnitudes are illustrative
    defaults (no bath-model derivation ships here).  osc_freq is omitted so
    the coefficient oscillation tracks omega.
    """
    return f"""\
# oscibath demo scenario: fig2
#
# One oscillator, initially unoccupied, with phenomenological friction and
# diffusion coefficients: zero at t = 0, a transient on the ramp_time scale,
# then periodic oscillation at the oscillator frequency (osc_freq is omitted,
# so it tracks omega).  The occupation number inherits that period at late
# times instead of settling to a constant.
#
# omega, n0, v0 and the two bath entries follow the reference parameter set
# this demo is named for (the fermionic/bosonic assignment is illustrative).
# mean/amp/phase/ramp values of the coefficients are illustrative demo
# defaults, not derived quantities.

[oscillator 1]
omega = 1
n0 = 0
v0 = 0

[coefficients 1]
kind = phenomenological
mean_lambda = 0.1
amp_lambda = 0.05
mean_D = 0.05
amp_D = 0.04
phase_lambda = 0
phase_D = {_PI}
ramp_time = 0.5

[bath 1 1]
statistics = fermionic
temperature = 1
alpha = 0.1
gamma = 10

[bath 1 2]
statistics = bosonic
temperature = 0.1
alpha = 0.05
gamma = 15

[integration]
t_end = 50
output_dt = 0.01
rtol = 1e-9
atol = 1e-12
"""


def demo_fig4_scenario(beta: str) -> str:
    """Two detuned coupled oscillators; envelope modulation grows with beta."""
    float(beta)  # fail fast on a malformed bundled value
    return f"""\
# oscibath demo scenario: fig4 (beta = {beta})
#
# Two coupled oscillators, both initially unoccupied, with individual
# phenomenological coefficient providers oscillating at the owning
# oscillator's frequency and out of phase between the two oscillators.
# The second oscillator is detuned (frequency ratio 1.5) so the coupling
# shows up as beating of the oscillation envelopes; the modulation depth
# grows with beta.
#
# n0, v0 and the bath temperature/alpha/gamma entries follow the reference
# parameter set this demo is named for.  The frequencies (ratio 1.5, scale
# chosen to keep the coupling-network mode frequencies below both carriers
# for every bundled beta), coefficient magnitudes and phases are
# illustrative demo defaults.

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
phase_D = {_PI}
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
phase_lambda = {_PI}
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
t_end = 80
output_dt = 0.01
rtol = 1e-9
atol = 1e-12
"""
