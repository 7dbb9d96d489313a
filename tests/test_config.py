import configparser
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hvqm.config import (ConfigParseError, ExperimentConfig, apply_overrides,
                         canonical_bytes, config_hash, parse_config,
                         parse_direction, parse_lhv_weights)
from hvqm.errors import ValidationError
from hvqm.runner import validate_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def configparser_sections(path):
    """The oracle: what configparser, set up as hvqm once used it, reads."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {name: dict(parser[name]) for name in parser.sections()}


# whitespace that str.strip removes but text-mode line iteration does not
# split at (\x0c, \x1c and \u2028 are line breaks to str.splitlines)
_SPACE = st.text(" \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000", max_size=3)


def _text(min_size=0, max_size=12, exclude=""):
    """Text of one line: no line break, no surrogate (not UTF-8)."""
    return st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\r\n" + exclude),
                   min_size=min_size, max_size=max_size)


_KEYS = _text(1, 8, exclude="=:").filter(lambda k: k == k.strip() and k[0] not in "[#;")


@st.composite
def documented_configs(draw):
    """(file text, its sections) over the documented grammar: headers,
    key = value lines with whitespace around `=` and at line ends, comment
    and blank lines, \n or \r\n endings."""
    names = draw(st.lists(_text(1, 8).filter(lambda n: n != "DEFAULT"), max_size=4, unique=True))
    sections = {name: draw(st.dictionaries(_KEYS, _text().map(str.strip), max_size=5))
                for name in names}
    filler = st.lists(st.one_of(_SPACE, st.tuples(_SPACE, st.sampled_from("#;"), _text())
                                .map("".join)), max_size=2)
    lines = draw(filler)
    for name, keys in sections.items():
        lines.append(f"[{name}]" + draw(_SPACE))
        for key, value in keys.items():
            lines += draw(filler)
            lines.append(key + draw(_SPACE) + "=" + draw(_SPACE) + value + draw(_SPACE))
    lines += draw(filler)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    return "".join(map("".join, zip(lines, ends))), sections


class TestParsing:
    def test_all_shipped_configs_parse_and_validate(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(path)
            notes = validate_experiment(cfg)
            assert notes, path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_config(tmp_path / "nope.cfg")

    def test_garbage_syntax(self, tmp_path):
        path = write(tmp_path, "this is not\n a config {{{\n")
        with pytest.raises(ConfigParseError):
            parse_config(path)

    def test_key_case_preserved(self, tmp_path):
        path = write(tmp_path, "[experiment]\nkind = chsh\nFoo = Bar\n")
        cfg = parse_config(path)
        assert cfg.get("experiment", "Foo") == "Bar"

    def test_shipped_configs_are_configparser_sections(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            sections = parse_config(path).sections
            assert list(map(list, sections.values())) == list(
                map(list, configparser_sections(path).values()))
            assert sections == configparser_sections(path), path

    @given(documented_configs())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_documented_grammar_gives_configparser_sections(self, tmp_path, doc):
        text, sections = doc
        path = tmp_path / "exp.cfg"
        path.write_bytes(text.encode("utf-8"))
        got = parse_config(path).sections
        assert got == sections == configparser_sections(path)
        # key order too: it is the order of a report's config echo
        assert [list(kv) for kv in got.values()] == [list(kv) for kv in sections.values()]

    @pytest.mark.parametrize("text, line, configparser_made", [
        # configparser continues the value above an indented line...
        ("[e]\nkind = chsh\n  seed = 1\n", 3, {"e": {"kind": "chsh\nseed = 1"}}),
        # ...and takes an indented line under a header as a key
        ("[e]\n  kind = chsh\n", 2, {"e": {"kind": "chsh"}}),
        ("[e]\nkind: chsh\n", 2, {"e": {"kind": "chsh"}}),
        ("[e]\na:b = c\n", 2, {"e": {"a": "b = c"}}),
        ("[e]\nkind\n", 2, configparser.ParsingError),
        ("[e]\n = chsh\n", 2, configparser.ParsingError),
        ("kind = chsh\n[e]\n", 1, configparser.MissingSectionHeaderError),
        ("[]\nkind = chsh\n", 1, configparser.MissingSectionHeaderError),
        ("[e\nkind = chsh\n", 1, configparser.MissingSectionHeaderError),
        # a key that starts with "[" is read as a broken header
        ("[e]\n[x = 1\n", 2, {"e": {"[x": "1"}}),
        # configparser ignores what follows the closing bracket
        ("[e] x = 1\nkind = chsh\n", 1, {"e": {"kind": "chsh"}}),
        # and merges [DEFAULT] into every section
        ("[DEFAULT]\nseed = 1\n[e]\nkind = chsh\n", 1, {"e": {"kind": "chsh", "seed": "1"}}),
        ("[e]\nkind = chsh\n[e]\n", 3, configparser.DuplicateSectionError),
        ("[e]\nkind = chsh\nkind = epr\n", 3, configparser.DuplicateOptionError),
    ])
    def test_undocumented_forms_name_their_line(self, tmp_path, text, line,
                                                configparser_made):
        path = write(tmp_path, text)
        with pytest.raises(ConfigParseError, match=f": line {line}: "):
            parse_config(path)
        if isinstance(configparser_made, dict):
            assert configparser_sections(path) == configparser_made
        else:
            with pytest.raises(configparser_made):
                configparser_sections(path)


class TestHashing:
    def test_order_insensitive(self):
        a = ExperimentConfig("chsh", {"experiment": {"kind": "chsh", "seed": "1"},
                                      "directions": {"a1": "0.0"}})
        b = ExperimentConfig("chsh", {"directions": {"a1": "0.0"},
                                      "experiment": {"seed": "1", "kind": "chsh"}})
        assert config_hash(a) == config_hash(b)

    def test_value_changes_hash(self):
        a = ExperimentConfig("chsh", {"experiment": {"kind": "chsh", "seed": "1"}})
        b = ExperimentConfig("chsh", {"experiment": {"kind": "chsh", "seed": "2"}})
        assert config_hash(a) != config_hash(b)

    def test_out_dir_and_workers_not_hashed(self):
        a = ExperimentConfig("chsh", {"experiment": {"kind": "chsh", "seed": "1"}})
        b = apply_overrides(a, out_dir="elsewhere", workers=8)
        assert config_hash(a) == config_hash(b)

    def test_seed_override_changes_hash(self):
        a = ExperimentConfig("chsh", {"experiment": {"kind": "chsh", "seed": "1"}})
        assert config_hash(apply_overrides(a, seed=2)) != config_hash(a)

    def test_canonical_bytes_sorted(self):
        cfg = ExperimentConfig("epr", {"b": {"k": "2"}, "a": {"z": "1", "a": "0"}})
        assert canonical_bytes(cfg) == b"a.a=0\na.z=1\nb.k=2\n"


class TestDirectionParsing:
    def test_angle(self):
        d = parse_direction("1.5707963267948966")
        assert d.nx == pytest.approx(0.0, abs=1e-12)
        assert d.ny == pytest.approx(1.0)

    def test_named_axes(self):
        assert parse_direction("x").nx == 1.0
        assert parse_direction("-y").ny == -1.0
        assert parse_direction("z").nz == 1.0

    def test_unit_triple(self):
        d = parse_direction("0.6,0.8,0.0")
        assert d.nx == pytest.approx(0.6)

    def test_non_unit_triple_reports_norm(self):
        with pytest.raises(ValidationError) as err:
            parse_direction("1.0,1.0,0.0")
        assert "norm" in str(err.value)
        assert "1.41" in str(err.value)

    def test_unit_check_is_the_directions(self):
        # one norm decides, hypot's: a square past the float range is no inf
        with pytest.raises(ValidationError) as err:
            parse_direction("1e200,0,0", "[directions] a")
        assert str(err.value) == ("[directions] a: direction (1e+200, 0.0, 0.0) has "
                                  "norm 1e+200, expected a unit vector")

    def test_unparseable(self):
        with pytest.raises(ValidationError):
            parse_direction("north")
        with pytest.raises(ValidationError):
            parse_direction("1.0,2.0")
        # an empty field is refused, not dropped: these once read as the x
        # axis and as the angle 0.5
        for raw in ("1,,0,0", ",1,0,0,", "0.5,"):
            with pytest.raises(ValidationError) as err:
                parse_direction(raw, "[directions] a")
            assert str(err.value) == f"[directions] a: empty field in {raw!r}"


class TestLhvWeights:
    def cfg_with_lhv(self, entries):
        sections = {"experiment": {"kind": "chsh"}, "lhv": entries}
        return ExperimentConfig("chsh", sections)

    def test_valid_sparse(self):
        w = parse_lhv_weights(self.cfg_with_lhv({"w0": "0.5", "w3": "0.5"}), 2)
        assert w == [0.5, 0.0, 0.0, 0.5]

    def test_negative_entry_names_pattern(self):
        with pytest.raises(ValidationError) as err:
            parse_lhv_weights(self.cfg_with_lhv(
                {"w0": "0.6", "w5": "-0.1", "w3": "0.5"}), 3)
        assert "(+,-,+)" in str(err.value)

    def test_sum_enforced(self):
        with pytest.raises(ValidationError):
            parse_lhv_weights(self.cfg_with_lhv({"w0": "0.9"}), 2)

    def test_bad_keys(self):
        with pytest.raises(ValidationError):
            parse_lhv_weights(self.cfg_with_lhv({"q1": "1.0"}), 2)
        with pytest.raises(ValidationError):
            parse_lhv_weights(self.cfg_with_lhv({"w99": "1.0"}), 2)


class TestValidateExperiment:
    def test_missing_seed_names_field(self, tmp_path):
        path = write(tmp_path, (
            "[experiment]\nkind = chsh\nmode = born_sampling\ntrials = 10\n"
            "[directions]\na1 = 0.0\na2 = 1.0\nb1 = 2.0\nb2 = 3.0\n"))
        with pytest.raises(ValidationError) as err:
            validate_experiment(parse_config(path))
        assert "seed" in str(err.value)

    def test_unknown_kind(self, tmp_path):
        path = write(tmp_path, "[experiment]\nkind = teleport\n")
        with pytest.raises(ValidationError):
            validate_experiment(parse_config(path))

    def test_twoslit_diagnostics_include_fringe_spacing(self):
        cfg = parse_config(CONFIG_DIR / "twoslit.cfg")
        notes = validate_experiment(cfg)
        joined = "\n".join(notes)
        assert "fringe spacing" in joined
        # lambda l2 / d = 0.01 * 100 / 1 = 1.0
        assert "1.0" in joined

    def test_trials_must_be_positive(self, tmp_path):
        path = write(tmp_path, (
            "[experiment]\nkind = epr\nmode = born_sampling\nseed = 1\ntrials = 0\n"
            "[directions]\na = 0.0\nb = 1.0\n"))
        with pytest.raises(ValidationError):
            validate_experiment(parse_config(path))

    def test_malformed_sequence_rejected(self, tmp_path):
        path = write(tmp_path, (
            "[experiment]\nkind = sterngerlach\nseed = 1\ntrials = 10\n"
            "[sequence]\nstage1 = recombine y\nstage2 = analyze x\n"))
        with pytest.raises(ValidationError):
            validate_experiment(parse_config(path))

    def test_overrides_flow_into_validation(self, tmp_path):
        path = write(tmp_path, (
            "[experiment]\nkind = chsh\nmode = born_sampling\ntrials = 10\n"
            "[directions]\na1 = 0.0\na2 = 1.0\nb1 = 2.0\nb2 = 3.0\n"))
        cfg = apply_overrides(parse_config(path), seed=9)
        notes = validate_experiment(cfg)
        assert any("seed: 9" in n for n in notes)
