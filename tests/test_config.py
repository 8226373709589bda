"""Configuration parsing, serialization, and object building."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shiftlab
from shiftlab.blockcode import apply_to_word, codes_equal, shift_power_code
from shiftlab.config import (
    OPERATION_PARAMS,
    Budgets,
    ExperimentConfig,
    RunSpec,
    check_run,
    parse_config,
    serialize_config,
)
from shiftlab.corpus import build_code, build_group, build_shift, load_rule_table
from shiftlab.errors import MAX_DEPTH, ConfigError
from shiftlab.grouplab import BS1nModel, HeisenbergModel, ZdModel
from shiftlab.shiftlang import (
    Alphabet,
    FullShift,
    PeriodicOrbit,
    SftForbidden,
    SubstitutionShift,
)


def parse(doc, builtins=None):
    return parse_config(json.dumps(doc), builtins)


class TestParse:
    def test_empty_document_gets_defaults(self):
        config = parse({})
        assert config.shifts == {} and config.codes == {} and config.groups == {}
        assert config.runs == ()
        assert config.out_dir == "results"
        assert config.budgets == Budgets()

    def test_full_document(self):
        config = parse(
            {
                "shifts": {"evens": {"kind": "sft", "alphabet": "01", "forbidden": ["101"]}},
                "codes": {"step": {"kind": "shift_power", "domain": "evens", "exponent": 2}},
                "groups": {"lattice": {"kind": "free_abelian", "rank": 3}},
                "runs": [
                    {"name": "a", "operation": "complexity", "params": {"shift": "evens", "depth": 4}},
                    {"name": "b", "operation": "minimal_range", "params": {"code": "step"}, "fabricated": True},
                ],
                "out_dir": "exp",
                "budgets": {"table_rows": 1000},
            }
        )
        assert set(config.shifts) == {"evens"}
        assert config.runs[0].params["depth"] == 4
        assert config.runs[1].fabricated is True
        assert config.out_dir == "exp"
        assert config.budgets.table_rows == 1000
        assert config.budgets.bfs_states == Budgets().bfs_states

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            parse({"rnus": []})

    def test_unknown_run_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse({"runs": [{"name": "a", "operation": "x", "fabrikated": True}]})

    def test_run_name_charset_enforced(self):
        with pytest.raises(ConfigError, match="letters, digits"):
            parse({"runs": [{"name": "a b", "operation": "x"}]})
        with pytest.raises(ConfigError, match="nonempty"):
            parse({"runs": [{"operation": "x"}]})

    def test_duplicate_run_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate run name 'a'"):
            parse(
                {
                    "runs": [
                        {"name": "a", "operation": "x"},
                        {"name": "a", "operation": "y"},
                    ]
                }
            )

    def test_missing_operation_rejected(self):
        with pytest.raises(ConfigError, match="needs an operation"):
            parse({"runs": [{"name": "a"}]})

    def test_section_entry_needs_kind(self):
        with pytest.raises(ConfigError, match="entry 'x' needs a 'kind'"):
            parse({"shifts": {"x": {"alphabet": "01"}}})
        with pytest.raises(ConfigError, match="entry 'x' needs a 'kind' string"):
            parse({"codes": {"x": {"kind": ["table"]}}})

    def test_unknown_budget_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown budget keys"):
            parse({"budgets": {"tables": 5}})

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigError, match="must be positive"):
            parse({"budgets": {"radius_cap": 0}})

    @pytest.mark.parametrize("value", ["many", True, 2.5, None])
    def test_non_integer_budget_rejected(self, value):
        with pytest.raises(ConfigError, match="budget table_rows must be an integer"):
            parse({"budgets": {"table_rows": value}})
        with pytest.raises(ConfigError, match="budget radius_cap must be an integer"):
            parse({"budgets": {"radius_cap": value}})

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_fabricated_must_be_a_boolean(self, value):
        with pytest.raises(ConfigError, match="fabricated must be true or false"):
            parse({"runs": [{"name": "a", "operation": "x", "fabricated": value}]})

    def test_runs_must_be_a_list(self):
        with pytest.raises(ConfigError, match="runs must be a JSON list"):
            parse({"runs": 3})

    def test_empty_out_dir_rejected(self):
        with pytest.raises(ConfigError, match="out_dir"):
            parse({"out_dir": ""})

    def test_references_checked_against_document(self):
        with pytest.raises(ConfigError, match="references unknown shift 'ghost'"):
            parse({"runs": [{"name": "a", "operation": "x", "params": {"shift": "ghost"}}]})

    def test_references_accept_builtin_names(self):
        builtins = {"shifts": frozenset({"ghost"})}
        config = parse(
            {"runs": [{"name": "a", "operation": "x", "params": {"shift": "ghost"}}]},
            builtins,
        )
        assert config.runs[0].params["shift"] == "ghost"

    def test_code_map_values_are_references(self):
        with pytest.raises(ConfigError, match="references unknown code 'nope'"):
            parse(
                {
                    "runs": [
                        {
                            "name": "a",
                            "operation": "x",
                            "params": {"codes": {"left": "nope"}},
                        }
                    ]
                }
            )


class TestSerialize:
    DOC = {
        "shifts": {"x": {"kind": "full", "alphabet": "ab"}},
        "runs": [
            {"name": "r1", "operation": "complexity", "params": {"shift": "x", "depth": 3}},
            {"name": "r2", "operation": "complexity", "params": {"shift": "x", "depth": 3}, "fabricated": True},
        ],
    }

    def test_round_trip_is_identity(self):
        first = parse(self.DOC)
        text = serialize_config(first)
        second = parse_config(text)
        assert second == first
        assert serialize_config(second) == text

    def test_canonical_form_is_stable(self):
        text = serialize_config(parse(self.DOC))
        assert text.endswith("\n")
        # fabricated appears only where it is true
        runs = json.loads(text)["runs"]
        assert "fabricated" not in runs[0]
        assert runs[1]["fabricated"] is True


class TestRuleTable:
    def test_parses_rows_and_skips_comments(self):
        table = load_rule_table("# parity\n000 0\n 001 1 \n\n010 1\n")
        assert table == {"000": "0", "001": "1", "010": "1"}

    def test_bad_field_count_names_origin_and_line(self):
        with pytest.raises(ConfigError, match=r"rules\.txt line 2: expected"):
            load_rule_table("000 0\n001\n", origin="rules.txt")

    def test_multicharacter_output_rejected(self):
        with pytest.raises(ConfigError, match="must be one symbol"):
            load_rule_table("000 01\n")

    def test_even_width_rejected(self):
        with pytest.raises(ConfigError, match="must be odd"):
            load_rule_table("00 0\n")

    def test_inconsistent_width_rejected(self):
        with pytest.raises(ConfigError, match="earlier rows have 3"):
            load_rule_table("000 0\n00000 1\n")

    def test_duplicate_window_rejected(self):
        with pytest.raises(ConfigError, match="line 2: duplicate window"):
            load_rule_table("000 0\n000 1\n")

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError, match="no rules found"):
            load_rule_table("# nothing here\n")


class TestBuildShift:
    def test_all_kinds(self):
        assert isinstance(build_shift("a", {"kind": "full", "alphabet": "01"}), FullShift)
        assert isinstance(
            build_shift("b", {"kind": "sft", "alphabet": "01", "forbidden": ["11"]}),
            SftForbidden,
        )
        assert isinstance(
            build_shift(
                "c",
                {"kind": "substitution", "alphabet": "01", "rules": {"0": "01", "1": "0"}},
            ),
            SubstitutionShift,
        )
        assert isinstance(build_shift("d", {"kind": "periodic", "seed": "001"}), PeriodicOrbit)

    def test_unknown_kind_names_shift(self):
        with pytest.raises(ConfigError, match="shift 'bad' has unknown kind 'sofic'"):
            build_shift("bad", {"kind": "sofic"})

    def test_missing_field_names_shift(self):
        with pytest.raises(ConfigError, match="shift 'bad' is missing field"):
            build_shift("bad", {"kind": "full"})

    def test_domain_error_names_shift(self):
        with pytest.raises(ConfigError, match="shift 'bad':"):
            build_shift("bad", {"kind": "sft", "alphabet": "01", "forbidden": ["0", "1"]})


class TestBuildCode:
    SHIFTS = {"bits": FullShift(Alphabet.of("01"))}

    def test_inline_table_with_default_radius(self):
        code = build_code(
            "maj",
            {
                "kind": "table",
                "domain": "bits",
                "table": {w: str(int(w.count("1") >= 2)) for w in ["000", "001", "010", "011", "100", "101", "110", "111"]},
            },
            self.SHIFTS,
            {},
        )
        assert code.rule.radius == 1
        assert apply_to_word(code, "0110") == "11"

    def test_table_from_file_relative_to_base_dir(self, tmp_path):
        rules = tmp_path / "sub" / "rule.txt"
        rules.parent.mkdir()
        rules.write_text("".join(f"{w} {w[1]}\n" for w in ["000", "001", "010", "011", "100", "101", "110", "111"]))
        code = build_code(
            "copy",
            {"kind": "table", "domain": "bits", "file": "sub/rule.txt"},
            self.SHIFTS,
            {},
            base_dir=tmp_path,
        )
        assert apply_to_word(code, "0110") == "11"

    def test_table_file_path_without_base_dir_or_absolute_is_read_as_given(self, tmp_path):
        # kills `if base_dir is not None` forced True in build_code, which
        # joins the path to None; an absolute path ignores base_dir
        rules = tmp_path / "rule.txt"
        rules.write_text("".join(f"{w} {w[1]}\n" for w in ["000", "001", "010", "011", "100", "101", "110", "111"]))
        spec = {"kind": "table", "domain": "bits", "file": str(rules)}
        for base_dir in (None, tmp_path / "elsewhere"):
            code = build_code("copy", spec, self.SHIFTS, {}, base_dir=base_dir)
            assert apply_to_word(code, "0110") == "11"

    def test_missing_file_names_code(self, tmp_path):
        with pytest.raises(ConfigError, match="code 'x': cannot read"):
            build_code(
                "x",
                {"kind": "table", "domain": "bits", "file": "gone.txt"},
                self.SHIFTS,
                {},
                base_dir=tmp_path,
            )

    def test_shift_power_symbol_map_compose_power(self):
        built = {}
        built["step"] = build_code(
            "step", {"kind": "shift_power", "domain": "bits", "exponent": 1}, self.SHIFTS, built
        )
        built["swap"] = build_code(
            "swap",
            {"kind": "symbol_map", "domain": "bits", "image": {"0": "1", "1": "0"}},
            self.SHIFTS,
            built,
        )
        composed = build_code(
            "both", {"kind": "compose", "outer": "step", "inner": "swap"}, self.SHIFTS, built
        )
        assert apply_to_word(composed, "0110") == "01"
        squared = build_code(
            "sq", {"kind": "power", "base": "step", "exponent": 2}, self.SHIFTS, built
        )
        assert codes_equal(squared, shift_power_code(self.SHIFTS["bits"], 2))

    def test_forward_reference_rejected(self):
        with pytest.raises(ConfigError, match="not defined earlier"):
            build_code(
                "x", {"kind": "compose", "outer": "later", "inner": "later"}, self.SHIFTS, {}
            )

    def test_unknown_shift_reference_rejected(self):
        with pytest.raises(ConfigError, match="references unknown shift 'ghost'"):
            build_code(
                "x", {"kind": "shift_power", "domain": "ghost", "exponent": 1}, self.SHIFTS, {}
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="code 'x' has unknown kind"):
            build_code("x", {"kind": "wavelet"}, self.SHIFTS, {})

    def test_empty_inline_table_rejected(self):
        with pytest.raises(ConfigError, match="empty table"):
            build_code("x", {"kind": "table", "domain": "bits", "table": {}}, self.SHIFTS, {})


class TestBuildGroup:
    def test_standard_groups(self):
        model, gens = build_group("z", {"kind": "free_abelian", "rank": 2})
        assert isinstance(model, ZdModel)
        assert set(gens.binding()) >= {"e1", "e2"}
        model, gens = build_group("h", {"kind": "heisenberg"})
        assert isinstance(model, HeisenbergModel)
        model, gens = build_group("bs", {"kind": "baumslag_solitar", "base": 2})
        assert isinstance(model, BS1nModel) and model.n == 2

    def test_named_generators(self):
        _, gens = build_group(
            "h",
            {
                "kind": "heisenberg",
                "generators": {"u": [1, 0, 0], "t": [0, 1, 0], "s": [0, 0, 1]},
            },
        )
        assert gens.binding()["s"] == (0, 0, 1)

    def test_bs_fraction_translation(self):
        _, gens = build_group(
            "bs",
            {
                "kind": "baumslag_solitar",
                "base": 2,
                "generators": {"a": [0, "1/2"], "b": [1, 0]},
            },
        )
        assert gens.binding()["a"] == (0, Fraction(1, 2))

    def test_bs_integral_fraction_string_is_an_int(self):
        _, gens = build_group(
            "bs",
            {"kind": "baumslag_solitar", "base": 2, "generators": {"a": [0, "4/2"]}},
        )
        assert gens.binding()["a"] == (0, 2) and type(gens.binding()["a"][1]) is int

    BS = {"kind": "baumslag_solitar", "base": 2}
    TRANSLATION = "translation must be an integer or a fraction string"

    @pytest.mark.parametrize(
        "spec, value, message",
        [
            (BS, [0, 0.5], TRANSLATION),
            (BS, [0, True], TRANSLATION),
            (BS, [0, None], TRANSLATION),
            (BS, [0.5, 1], "power must be an integer"),
            (BS, [True, 1], "power must be an integer"),
            (BS, [1, "x/2"], "translation 'x/2' is not a fraction"),
            (BS, [1, "1/0"], "translation '1/0' is not a fraction"),
            ({"kind": "heisenberg"}, [True, 0, 0], "elements are lists of 3 integers"),
            ({"kind": "heisenberg"}, [0, 0, 1.0], "elements are lists of 3 integers"),
            ({"kind": "free_abelian", "rank": 2}, [1, False], "lists of 2 integers"),
            ({"kind": "free_abelian", "rank": 2}, "1 0", "generator values must be lists"),
            (BS, {"power": 1}, "generator values must be lists"),
        ],
    )
    def test_bad_element_entries_name_group(self, spec, value, message):
        with pytest.raises(ConfigError, match=f"group 'g': .*{message}"):
            build_group("g", {**spec, "generators": {"a": value}})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "baumslag_solitar", "base": 2.5}, "base must be an integer"),
            ({"kind": "baumslag_solitar", "base": "2"}, "base must be an integer"),
            ({"kind": "free_abelian", "rank": True}, "rank must be an integer"),
            ({"kind": "free_abelian", "rank": 2.0}, "rank must be an integer"),
            ({"kind": "free_abelian", "rank": 0}, "rank must be an integer from 1 to 256"),
            ({"kind": "free_abelian", "rank": 257}, "rank must be an integer from 1 to 256"),
        ],
    )
    def test_non_integer_base_and_rank_name_group(self, spec, message):
        with pytest.raises(ConfigError, match=f"group 'g': {message}"):
            build_group("g", spec)

    def test_errors_name_group(self):
        with pytest.raises(ConfigError, match="group 'g' has unknown kind"):
            build_group("g", {"kind": "braid"})
        with pytest.raises(ConfigError, match="group 'g' is missing field"):
            build_group("g", {"kind": "free_abelian"})
        with pytest.raises(ConfigError, match="group 'g': elements are lists of 3"):
            build_group("g", {"kind": "heisenberg", "generators": {"u": [1, 0]}})
        with pytest.raises(ConfigError, match=r"elements are \[power, translation\]"):
            build_group(
                "g", {"kind": "baumslag_solitar", "base": 2, "generators": {"a": [1]}}
            )


@pytest.mark.parametrize(
    "section, spec, error",
    [
        ("shift", {"kind": "periodic", "seed": "01", "alphabet": "01"}, "'alphabet'"),
        ("code", {"kind": "table", "domain": "bits", "raduis": 2,
                  "table": {"0": "1", "1": "0"}}, "'raduis'"),
        ("group", {"kind": "free_abelian", "rank": 1, "generatos": {"a": [2]}}, "'generatos'"),
    ],
)
def test_misspelled_field_names_entry_and_field(section, spec, error):
    build = {
        "shift": lambda: build_shift("x", spec),
        "code": lambda: build_code("x", spec, {"bits": FullShift(Alphabet.of("01"))}, {}),
        "group": lambda: build_group("x", spec),
    }[section]
    with pytest.raises(ConfigError, match=f"^{section} 'x': unknown field {error}$"):
        build()


class TestSpecGuards:
    def test_runspec_validates_on_construction(self):
        with pytest.raises(ConfigError):
            RunSpec("bad name", "op")
        with pytest.raises(ConfigError):
            RunSpec("ok", "")

    def test_budgets_validate_on_construction(self):
        with pytest.raises(ConfigError):
            Budgets(table_rows=0)
        with pytest.raises(ConfigError, match="must be an integer"):
            Budgets(table_rows="many")
        with pytest.raises(ConfigError, match="must be an integer"):
            Budgets(radius_cap=True)

    def test_experiment_config_is_plain_data(self):
        config = ExperimentConfig(runs=(RunSpec("a", "complexity"),))
        assert config.runs[0].operation == "complexity"


class TestCheckRun:
    class Catalogs:
        budgets = Budgets(radius_cap=7)
        shifts = {"full-2": FullShift(Alphabet.of("01"))}
        codes = {"shift": shift_power_code(shifts["full-2"], 1)}
        groups = {}

    def check(self, operation, **params):
        return check_run(RunSpec("r", operation, params), self.Catalogs())

    def test_references_resolved_and_defaults_filled(self):
        values = self.check("inverse_search", code="shift")
        assert values == {"code": self.Catalogs.codes["shift"], "radius_cap": 7}
        values = self.check("special_words", shift="full-2", length=2)
        assert values["shift"] is self.Catalogs.shifts["full-2"]
        assert values["side"] == "right"

    def test_selector_value_picks_the_variant(self):
        assert self.check("certificate", kind="heisenberg_square", n=3) == {
            "kind": "heisenberg_square", "n": 3,
        }
        with pytest.raises(ConfigError, match="unknown parameter 'base'"):
            self.check("certificate", kind="heisenberg_square", n=3, base=2)
        with pytest.raises(ConfigError, match="'kind' must be one of 'bs_horner'"):
            self.check("certificate", kind="bs_hörner", n=3)

    def test_given_parameter_picks_the_variant(self):
        values = self.check("audit_entropy", shift="full-2", depth_complexity=4,
                            range_entries=[1, 2, 3])
        assert values["range_entries"].entries == (1, 2, 3)
        with pytest.raises(ConfigError, match="needs parameter 'depth_range'"):
            self.check("audit_entropy", shift="full-2", depth_complexity=4, code="shift")
        with pytest.raises(ConfigError, match="unknown parameter 'code'"):
            self.check("audit_entropy", shift="full-2", depth_complexity=4,
                       range_entries=[1], code="shift")

    def test_literal_profiles_must_be_subadditive_unless_fabricated(self):
        with pytest.raises(ConfigError, match="'range_entries': .*not subadditive"):
            self.check("audit_entropy", shift="full-2", depth_complexity=4,
                       range_entries=[1, 99])
        run = RunSpec("r", "audit_entropy",
                      {"shift": "full-2", "depth_complexity": 4, "range_entries": [1, 99]},
                      fabricated=True)
        assert check_run(run, self.Catalogs())["range_entries"].entries == (1, 99)

    def test_null_only_where_the_default_is_null(self):
        values = self.check("audit_polynomial", shift="full-2", depth=3,
                            range_entries=[1], root=None)
        assert values["root"] is None and values["require_sublinear"] is True
        with pytest.raises(ConfigError, match="'depth' must be an integer"):
            self.check("complexity", shift="full-2", depth=None)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigError, match="uses unknown operation 'x'"):
            self.check("x")

    def test_every_depth_shares_one_cap(self):
        depths = {
            name: param.kind
            for op in OPERATION_PARAMS.values()
            for params in (op.params, *op.variants.values())
            for name, param in params.items()
            if name.startswith("depth")
        }
        assert depths == dict.fromkeys(["depth", "depth_complexity", "depth_range"], "depth")
        assert self.check("complexity", shift="full-2", depth=MAX_DEPTH)["depth"] == MAX_DEPTH
        with pytest.raises(ConfigError, match=f"run 'r': parameter 'depth_complexity' must be "
                                              f"an integer from 1 to {MAX_DEPTH}$"):
            self.check("audit_entropy", shift="full-2", depth_complexity=MAX_DEPTH + 1,
                       range_entries=[1])


# Every parameter a run of each operation may set, its variants' and the
# variant selector included.  A new run option doubles the configurations
# the tests must cover, so adding one is a deliberate edit here.
SETTABLE_PARAMS = {
    "complexity": {"shift", "depth"},
    "morse_hedlund": {"shift", "limit"},
    "special_words": {"shift", "length", "side"},
    "range_profile": {"code", "depth"},
    "minimal_range": {"code"},
    "inverse_search": {"code", "radius_cap"},
    "endomorphism_check": {"code"},
    "rectangle_complexity": {"shift", "code", "cols", "rows"},
    "cyr_kra": {"shift", "code", "length", "height"},
    "vertical_period": {"shift", "code", "length", "height"},
    "coding_check": {"shift", "code", "length", "height", "cells_a", "cells_b"},
    "ball_growth": {"group", "radius"},
    "word_length": {"group", "element", "radius"},
    "distortion": {"group", "element", "depth", "radius"},
    "certificate": {"kind", "m", "base", "n"},
    "growth_formula": {"formula", "ranks", "step", "complexity_exponent"},
    "audit_range_word": {"group", "element", "depth", "codes", "radius", "range_entries",
                         "element_code"},
    "audit_entropy": {"shift", "depth_complexity", "range_entries", "code", "depth_range"},
    "audit_polynomial": {"shift", "depth", "root", "require_sublinear", "range_entries",
                         "code", "depth_range"},
    "audit_shift_power": {"shift", "exponent", "depth"},
}


def test_settable_run_parameters_are_pinned():
    settable = {
        name: {p for params in (op.params, *op.variants.values()) for p in params}
        | ({op.by} if op.by else set())
        for name, op in OPERATION_PARAMS.items()
    }
    assert settable == SETTABLE_PARAMS
    assert sum(map(len, settable.values())) == 70


def test_config_loads_no_entry_or_runner_module():
    # config parses documents and checks run parameters; building the
    # entries they name belongs to corpus and the layers behind it
    src = Path(shiftlab.__file__).resolve().parent.parent
    probe = "import sys, shiftlab.config; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(result.stdout.split())
    assert "shiftlab.config" in loaded
    for name in ("corpus", "shiftlang", "spacetime", "audit", "cli"):
        assert f"shiftlab.{name}" not in loaded
