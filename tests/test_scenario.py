import configparser
import dataclasses

import pytest

from oscibath.coefficients import KINDS, make_provider
from oscibath.model import (
    InvalidConfig,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)
from oscibath.scenario import (
    apply_override,
    build_config,
    demo_fig2_scenario,
    demo_fig4_scenario,
    load_scenario,
    parse_scenario,
    read_scenario,
    read_sections,
    serialize_scenario,
)

HANDCRAFTED = """\
# exercise every section type
[oscillator 1]
omega = 1
n0 = 0.25
v0 = 0.1

[coefficients 1]
kind = constant
lambda = 0.3
D = 0.15

[bath 1 1]
statistics = fermionic
temperature = 1
alpha = 0.1
gamma = 10

[oscillator 2]
omega = 1.5

[coefficients 2]
kind = tabulated
path = coeffs/table.csv

[bath 2 1]
statistics = bosonic
temperature = 0.1
alpha = 0.05
gamma = 15

[coupling]
beta 1 2 = 0.2

[integration]
t_end = 40
output_dt = 0.02
rtol = 1e-8
atol = 1e-11
"""


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        demo_fig2_scenario(),
        demo_fig4_scenario("0.05"),
        demo_fig4_scenario("0.2"),
        demo_fig4_scenario("0.5"),
        HANDCRAFTED,
    ])
    def test_parse_serialize_parse_is_identity(self, text):
        config = parse_scenario(text)
        again = parse_scenario(serialize_scenario(config))
        assert again == config

    def test_defaults_applied(self):
        config = parse_scenario(HANDCRAFTED.replace(
            "output_dt = 0.02\nrtol = 1e-8\natol = 1e-11\n", ""))
        assert config.oscillators[1].n0 == 0.0 == OscillatorSpec.n0
        assert config.oscillators[1].v0 == 0.0 == OscillatorSpec.v0
        for key in ("output_dt", "rtol", "atol"):
            assert getattr(config, key) == getattr(SimulationConfig, key)
        assert config.coupling.beta[0][1] == 0.2
        assert config.baths[0][0].statistics.value == "fermionic"

    def test_omitted_osc_freq_tracks_omega(self):
        config = parse_scenario(demo_fig2_scenario())
        params = config.provider_config[0].as_dict()
        assert params["osc_freq"] == config.oscillators[0].omega

    def test_reverse_order_beta_key(self):
        text = HANDCRAFTED.replace("beta 1 2 = 0.2", "beta 2 1 = 0.2")
        config = parse_scenario(text)
        assert config.coupling.beta[0][1] == 0.2
        assert config.coupling.beta[1][0] == 0.2


class TestParseErrors:
    @pytest.mark.parametrize("mangle,message", [
        (("omega = 1\nn0 = 0.25", "omega = -1\nn0 = 0.25"), "omega"),
        (("[integration]", "[misc]"), "unknown section"),
        (("kind = constant", "kind = mystery"), "unknown kind"),
        (("statistics = fermionic", "statistics = classical"),
         "fermionic or bosonic"),
        (("beta 1 2 = 0.2", "beta 1 2 = lots"), "not a number"),
        (("beta 1 2 = 0.2", "beta 1 1 = 0.2"), "indices must differ"),
        (("beta 1 2 = 0.2", "beta 1 3 = 0.2"), "out of range"),
        (("n0 = 0.25", "mass = 1"), "unknown key"),
        (("omega = 1\nn0 = 0.25", "omega = inf\nn0 = 0.25"), "omega: not finite"),
        pytest.param(("[oscillator 2]", "[oscillator 2"),
                     r"line 18: '\[oscillator 2' is neither a section header "
                     "nor 'key = value'", id="mangle9-scenario syntax"),
        ((HANDCRAFTED, "[integration]\nt_end = 40\n"), "no oscillator sections"),
        (("[coefficients 2]", "[coefficients 3]"),
         "coefficients sections must match oscillator sections"),
        (("kind = tabulated\n", ""), r"\[coefficients 2\] kind missing"),
        (("[bath 2 1]", "[bath 2 2]"), "oscillator 2 must be numbered 1..K"),
        (("[bath 2 1]", "[bath 3 1]"), "bath section for unknown oscillator 3"),
        (("beta 1 2 = 0.2", "alpha 1 2 = 0.2"), r"\[coupling\] unknown key 'alpha 1 2'"),
        (("[integration]\nt_end = 40\noutput_dt = 0.02\nrtol = 1e-8\natol = 1e-11\n",
          ""), "integration section missing"),
        (("lambda = 0.3\n", ""), r"\[coefficients 1\] lambda missing"),
        (("path = coeffs/table.csv\n", ""), r"\[coefficients 2\] path missing"),
        (("kind = constant\nlambda = 0.3\nD = 0.15",
          "kind = phenomenological\nmean_lambda = 0.3\namp_lambda = 0.1\n"
          "mean_D = 0.15"), r"\[coefficients 1\] amp_D missing"),
        (("lambda = 0.3", "mu = 0.3"), r"\[coefficients 1\] unknown key 'mu'"),
        # Not configparser's defaults section, whose keys it would copy into
        # every other section.
        ((HANDCRAFTED, "[DEFAULT]\nn0 = 0\n\n" + HANDCRAFTED),
         "^unknown section 'DEFAULT'$"),
        ((HANDCRAFTED, HANDCRAFTED + "\n[DEFAULT]\n"), "^unknown section 'DEFAULT'$"),
        # An index is spelled 1, 2, ...; another spelling of one is not a
        # second name for its section, which it would silently replace.
        (("[oscillator 2]", "[oscillator 02]"), "^unknown section 'oscillator 02'$"),
        (("[bath 2 1]", "[bath 2 01]"), "^unknown section 'bath 2 01'$"),
        (("beta 1 2", "beta 01 2"), r"^\[coupling\] unknown key 'beta 01 2'$"),
        (("[oscillator 2]", "[oscillator 0]"), "^unknown section 'oscillator 0'$"),
        (("[bath 2 1]", "[bath 2 0]"), "^unknown section 'bath 2 0'$"),
        (("[coefficients 2]", "[coefficients \u0662]"),
         "^unknown section 'coefficients \u0662'$"),
    ])
    def test_bad_input_names_the_problem(self, mangle, message):
        text = HANDCRAFTED.replace(*mangle)
        with pytest.raises(InvalidConfig, match=message):
            parse_scenario(text)

    @pytest.mark.parametrize("mangle, message", [
        (("t_end =", "t_ned ="), "[integration] unknown key 't_ned'"),
        (("[oscillator 2]", "[oscillator 2"),
         "line 18: '[oscillator 2' is neither a section header nor 'key = value'"),
    ], ids=["build", "syntax"])
    def test_load_scenario_names_the_file(self, tmp_path, mangle, message):
        path = tmp_path / "bad.scn"
        path.write_text(HANDCRAFTED.replace(*mangle), encoding="utf-8")
        with pytest.raises(InvalidConfig) as info:
            load_scenario(path)
        assert str(info.value) == f"scenario {path}: {message}"

    def test_text_syntax_error_is_one_line_naming_its_line(self):
        with pytest.raises(InvalidConfig) as info:
            parse_scenario("t_end = 5\n" + HANDCRAFTED)
        assert str(info.value) == "line 1: 't_end = 5' precedes every section"

    def test_syntax_error_without_a_line_is_one_line(self, tmp_path, monkeypatch):
        def fail(self, text):
            raise configparser.Error("no\n\tline")

        monkeypatch.setattr(configparser.ConfigParser, "read_string", fail)
        path = tmp_path / "any.scn"
        path.write_text(HANDCRAFTED, encoding="utf-8")
        with pytest.raises(InvalidConfig) as info:
            read_scenario(path)
        assert str(info.value) == f"scenario {path}: no line"

    def test_missing_t_end(self):
        text = HANDCRAFTED.replace("t_end = 40\n", "")
        with pytest.raises(InvalidConfig, match="t_end missing"):
            parse_scenario(text)

    def test_noncontiguous_oscillator_numbering(self):
        text = HANDCRAFTED.replace("[oscillator 2]", "[oscillator 3]")
        with pytest.raises(InvalidConfig, match="numbered 1..N"):
            parse_scenario(text)

    def test_boolean_tokens(self):
        text = demo_fig2_scenario().replace(
            "ramp_time = 0.5\n", "ramp_time = 0.5\nallow_negative_friction = yes\n")
        params = parse_scenario(text).provider_config[0].as_dict()
        assert params["allow_negative_friction"] is True
        with pytest.raises(InvalidConfig, match="allow_negative_friction: "
                                                "not a boolean: 'maybe'"):
            parse_scenario(text.replace("= yes", "= maybe"))

    @pytest.mark.parametrize("index,pc,line", [
        (0, ProviderConfig("constant", {"D": 0.15}), "lambda = 0.3\n"),
        (1, ProviderConfig("tabulated"), "path = coeffs/table.csv\n"),
    ])
    def test_incomplete_provider_refused_as_the_parser_refuses_it(
            self, index, pc, line):
        config = parse_scenario(HANDCRAFTED)
        providers = list(config.provider_config)
        providers[index] = pc
        broken = dataclasses.replace(config, provider_config=tuple(providers))
        with pytest.raises(InvalidConfig) as parsed:
            parse_scenario(HANDCRAFTED.replace(line, ""))
        with pytest.raises(InvalidConfig) as serialized:
            serialize_scenario(broken)
        assert str(serialized.value) == str(parsed.value)
        assert str(parsed.value) == (f"[coefficients {index + 1}] "
                                     f"{line.split()[0]} missing")

    def test_custom_provider_has_no_text(self):
        config = parse_scenario(HANDCRAFTED)
        custom = dataclasses.replace(
            config, provider_config=(ProviderConfig("custom"),) * 2)
        with pytest.raises(InvalidConfig, match="custom providers have no "
                                                "scenario representation"):
            serialize_scenario(custom)

    def test_every_reader_of_a_kind_refuses_an_unknown_one(self):
        typo = HANDCRAFTED.replace("kind = constant", "kind = phenomenologcal")
        with pytest.raises(InvalidConfig, match=r"^\[coefficients 1\] unknown "
                                                "kind 'phenomenologcal'$"):
            parse_scenario(typo)
        # A config does not read its kinds, so one with a typo builds.
        config = parse_scenario(HANDCRAFTED)
        pc = ProviderConfig("phenomenologcal", {"mean_lambda": 0.1})
        config = dataclasses.replace(
            config, provider_config=(pc, config.provider_config[1]))
        with pytest.raises(InvalidConfig, match="^unknown coefficient kind "
                                                "'phenomenologcal'$"):
            make_provider(pc)
        with pytest.raises(InvalidConfig, match="^custom providers have no "
                                                "scenario representation$"):
            serialize_scenario(config)

    def test_conflicting_beta_pair(self):
        text = HANDCRAFTED.replace("beta 1 2 = 0.2",
                                   "beta 1 2 = 0.2\nbeta 2 1 = 0.3")
        with pytest.raises(InvalidConfig, match="conflicting"):
            parse_scenario(text)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_table_is_the_scenario_grammar(kind):
    spec = KINDS[kind]

    def text(keys):
        values = {key: "t.csv" if key in spec.text else
                  "false" if key in spec.flags else "0" for key in keys}
        return "".join(["[oscillator 1]\nomega = 2\n\n[coefficients 1]\n",
                        f"kind = {kind}\n"]
                       + [f"{key} = {value}\n" for key, value in values.items()]
                       + ["\n[integration]\nt_end = 1\n"])

    def refusal(keys):
        with pytest.raises(InvalidConfig) as info:
            parse_scenario(text(keys))
        return str(info.value)

    config = parse_scenario(text(spec.required))
    assert config.provider_config[0].kind == kind
    assert parse_scenario(serialize_scenario(config)) == config
    others = {key for other in KINDS.values() for key in other.keys} | {"mass"}
    for key in sorted(others - set(spec.keys)):
        assert refusal(spec.required + (key,)) == (
            f"[coefficients 1] unknown key '{key}'")
    for key in spec.required:
        assert refusal([k for k in spec.required if k != key]) == (
            f"[coefficients 1] {key} missing")


class TestOverrides:
    def test_integration_field(self):
        sections = read_sections(HANDCRAFTED)
        config = build_config(apply_override(sections, "integration.rtol", "1e-6"))
        assert config.rtol == 1e-6

    def test_omega_override_retunes_provider(self):
        sections = read_sections(demo_fig2_scenario())
        config = build_config(apply_override(sections, "oscillator.1.omega", "0.5"))
        assert config.oscillators[0].omega == 0.5
        assert config.provider_config[0].as_dict()["osc_freq"] == 0.5

    def test_uniform_beta(self):
        sections = read_sections(demo_fig4_scenario("0.05"))
        config = build_config(apply_override(sections, "coupling.beta", "0.4"))
        assert config.coupling.beta[0][1] == 0.4

    def test_uniform_beta_without_a_pair(self):
        # It would set nothing, so every member of a sweep would be one run.
        sections = read_sections(demo_fig2_scenario())
        with pytest.raises(InvalidConfig, match="^override key 'coupling.beta': "
                                                "no oscillator pair$"):
            apply_override(sections, "coupling.beta", "nan")

    def test_single_pair_beta(self):
        sections = read_sections(demo_fig4_scenario("0.05"))
        config = build_config(apply_override(sections, "coupling.beta.2.1", "0.33"))
        assert config.coupling.beta[0][1] == 0.33
        assert config.coupling.beta[1][0] == 0.33

    def test_coefficient_field(self):
        sections = read_sections(demo_fig2_scenario())
        config = build_config(
            apply_override(sections, "coefficients.1.mean_lambda", "0.2"))
        assert config.provider_config[0].as_dict()["mean_lambda"] == 0.2

    def test_unresolvable_key(self):
        sections = read_sections(HANDCRAFTED)
        with pytest.raises(InvalidConfig, match="cannot resolve"):
            apply_override(sections, "nonsense.key", "1")
        for key in ("coupling.beta.one.2", "coupling.gamma"):
            with pytest.raises(InvalidConfig,
                               match=f"cannot resolve override key '{key}'"):
                apply_override(sections, key, "1")

    def test_missing_section_index(self):
        sections = read_sections(demo_fig2_scenario())
        with pytest.raises(InvalidConfig, match="no section"):
            apply_override(sections, "oscillator.2.omega", "1")

    def test_override_to_non_numeric_fails_at_build(self):
        sections = read_sections(demo_fig2_scenario())
        work = apply_override(sections, "oscillator.1.omega", "fast")
        with pytest.raises(InvalidConfig, match="not a number"):
            build_config(work)
