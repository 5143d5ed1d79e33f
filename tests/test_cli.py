import json
import math
import pathlib
import re

import numpy as np
import pytest
import yaml

from loopgas import cli, experiments, mc

SCHEMA_DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"
EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples_configs"

MINIMAL = """
model:
  dimension: 2
  n_types: 1
  beta: 1.0
  fugacity: [0.5]
geometry:
  box_half_side: 5.0
"""

B_CONDITION = """
model:
  dimension: 2
  n_types: 2
  beta: 1.0
  fugacity: [0.5, 0.5]
geometry:
  box_half_side: 8.0
  box0_half_side: 0.5
experiment:
  name: b-condition
  options:
    growth_family: linear
    c: 1.0
"""

DENSITY = """
model:
  dimension: 2
  n_types: 1
  beta: 1.0
  fugacity: [0.4]
geometry:
  box_half_side: 3.0
  window_half_side: 1.0
sampler:
  seed: 11
  slices_per_beta: 2
experiment:
  name: density
  options:
    sweeps: 40
    burn_in: 10
    thin: 2
"""


def errors_of(text, experiment_name=None):
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(text, experiment_name=experiment_name)
    return exc.value.errors


class TestParseConfig:
    def test_minimal_config_accepted(self):
        cfg = cli.parse_config(MINIMAL)
        assert cfg["model"]["fugacity"] == [0.5]
        assert "sampler" not in cfg

    def test_unknown_top_key_suggests_fix(self):
        errs = errors_of(MINIMAL.replace("model:", "modle:")
                         + "model:\n  dimension: 2\n  n_types: 1\n"
                           "  beta: 1.0\n  fugacity: [0.5]\n")
        assert any("unknown key 'modle' at top level" in e
                   and "did you mean 'model'?" in e for e in errs)

    def test_fugacity_range_violation(self):
        errs = errors_of(MINIMAL.replace("[0.5]", "[1.2]"))
        assert any("range violation at key model.fugacity[0]" in e
                   and "open interval (0, 1)" in e for e in errs)

    def test_all_errors_collected_at_once(self):
        bad = """
model:
  dimension: 2
  n_types: 1
  beta: -1.0
  fugacity: [0.5, 0.7]
"""
        errs = errors_of(bad)
        assert len(errs) >= 3  # bad beta, wrong vector length, missing geometry

    def test_subcommand_name_mismatch(self):
        text = MINIMAL + "experiment:\n  name: free-validate\n"
        errs = errors_of(text, experiment_name="density")
        assert any("declares 'free-validate'" in e and "'density'" in e
                   for e in errs)

    def test_unknown_experiment_suggested(self):
        text = MINIMAL + "experiment:\n  name: fre-validate\n"
        errs = errors_of(text)
        assert any("did you mean 'free-validate'?" in e for e in errs)

    def test_option_typo_rejected(self):
        text = MINIMAL + ("experiment:\n  name: free-validate\n"
                          "  options:\n    sweps: 10\n")
        errs = errors_of(text)
        assert any("unknown key 'sweps' at experiment.options" in e
                   and "sweeps" in e for e in errs)

    def test_type_checks(self):
        errs = errors_of(MINIMAL.replace("beta: 1.0", "beta: yes"))
        assert any("model.beta: expected a number" in e for e in errs)
        errs = errors_of(MINIMAL.replace("dimension: 2", "dimension: 2.5"))
        assert any("model.dimension: expected an integer" in e for e in errs)

    def test_potential_entry_checks(self):
        errs = errors_of("""
model:
  dimension: 2
  n_types: 1
  beta: 1.0
  fugacity: [0.5]
  potentials:
    - types: [0, 5]
      profile: square_wall
      hard_core: 1.0
      range: 0.5
geometry:
  box_half_side: 5.0
""")
        assert any("indices outside [0, 1)" in e for e in errs)
        assert any("'square_wall' is not one of" in e for e in errs)
        assert any("range 0.5 below hard_core 1.0" in e for e in errs)

    def test_geometry_vector_length(self):
        errs = errors_of(MINIMAL + "  box0_center: [0.0]\n")
        assert any("geometry.box0_center: expected 2 entries" in e for e in errs)

    def test_move_weights_validated(self):
        errs = errors_of(MINIMAL + "sampler:\n  move_weights: [1, -2, 1]\n")
        assert any("move_weights" in e for e in errs)

    def test_external_counts_need_a_positive_reach(self):
        # the points are scattered within reach of the box; with no reach
        # there is nowhere to put them
        well = MINIMAL.replace("geometry:", "  potentials:\n    - {types: [0, 0], "
                               "range: 0.3, height: 1.0}\ngeometry:")
        for text in (MINIMAL + "external:\n  counts: [2]\n",
                     well + "external:\n  counts: [2]\n  reach: 0.0\n"):
            assert any("external.counts" in e and "positive reach" in e
                       for e in errors_of(text))
        cli.parse_config(well + "external:\n  counts: [2]\n")
        cli.parse_config(MINIMAL + "external:\n  counts: [0]\n")
        cli.parse_config(MINIMAL + "external:\n  counts: [2]\n  points: [[[6.0, 0.0]]]\n")

    def test_invalid_yaml(self):
        errs = errors_of("model: [unclosed\n  beta: 1.0\n")
        assert any("not valid YAML" in e for e in errs)

    def test_non_mapping_rejected(self):
        errs = errors_of("- 1\n- 2\n")
        assert errs == ["config must be a mapping of sections"]


class TestFiniteNumbers:
    # every number of a config, in a list or an external point too, must be
    # a finite double: NaN fails every bound (nan < 0 is false)

    @pytest.mark.parametrize("text,key", [
        (MINIMAL.replace("beta: 1.0", "beta: .nan"), "model.beta"),
        (MINIMAL.replace("beta: 1.0", "beta: .inf"), "model.beta"),
        (MINIMAL.replace("[0.5]", "[.nan]"), "model.fugacity"),
        (MINIMAL.replace("5.0", "-.inf"), "geometry.box_half_side"),
        (MINIMAL + "  box0_center: [.nan, 0.0]\n", "geometry.box0_center"),
        (MINIMAL + "sampler:\n  move_weights: [1, .nan, 1]\n", "sampler.move_weights"),
        (MINIMAL + "external:\n  points: [[[5.5, .nan]]]\n", "external.points"),
        (MINIMAL + "external:\n  reach: .inf\n", "external.reach"),
        (MINIMAL + "experiment:\n  name: analytic\n  options:\n"
         "    envelope_grid: [1.0, .nan]\n", "experiment.options.envelope_grid"),
        (B_CONDITION.replace("c: 1.0", "c: .nan"), "experiment.options.c"),
    ], ids=["nan-beta", "inf-beta", "nan-fugacity", "minus-inf-half-side", "nan-center",
            "nan-move-weight", "nan-external-point", "inf-reach", "nan-envelope-grid",
            "nan-growth-constant"])
    def test_non_finite_numbers_refused(self, text, key):
        assert any(key in e for e in errors_of(text))

    def test_nan_height_is_refused(self):
        # it once turned the square well into a hard core of its range,
        # while the model read as no hard core
        text = MINIMAL.replace("geometry:", "  potentials:\n    - {types: [0, 0], profile: "
                               "square_well, range: 0.8, height: .nan}\ngeometry:")
        assert any("model.potentials[0].height" in e for e in errors_of(text))

    def test_ints_beyond_the_largest_double_are_not_numbers(self):
        assert cli._is_num(10 ** 308) and not cli._is_num(10 ** 309)
        assert not any(map(cli._is_num, (math.nan, math.inf, -math.inf, True)))

    @pytest.mark.parametrize("options", [
        "    deviation_thresholds: [.nan]\n", "    displacement: .nan\n"])
    def test_bridge_laws_exits_two(self, tmp_path, capsys, deadline, options):
        # both once ran forever: the deviation tail's image sum never stopped
        path = tmp_path / "b.yaml"
        path.write_text(MINIMAL + "experiment:\n  options:\n" + options)
        with deadline(5.0):
            code = cli.main(["bridge-laws", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "config error: at experiment.options." in capsys.readouterr().err


class TestLengthsNamedByModelKeys:
    # fugacity and every counts list take one entry per type, box0_center
    # and shift one per axis, as the table says (Key.length)

    @pytest.mark.parametrize("text,message", [
        (MINIMAL.replace("[0.5]", "[0.5, 0.5]"), "model.fugacity: expected 1 entries, got 2"),
        (MINIMAL + "  shift: [1.0]\n", "geometry.shift: expected 2 entries, got 1"),
        (MINIMAL + "external:\n  counts: [1, 1]\n",
         "external.counts: expected a list of length 1 of non-negative integers"),
        (MINIMAL + "experiment:\n  name: kernel\n  options:\n    counts: [1, 1]\n",
         "experiment.options.counts: expected a list of length 1 of non-negative integers"),
        (MINIMAL.replace("geometry:", "  potentials:\n    - {types: [0]}\ngeometry:"),
         "model.potentials[0].types: expected a list of length 2 of type indices"),
    ], ids=["fugacity", "shift", "external-counts", "option-counts", "potential-types"])
    def test_wrong_lengths(self, text, message):
        assert any(message in e for e in errors_of(text))

    def test_lengths_follow_the_model_given(self):
        text = MINIMAL.replace("n_types: 1", "n_types: 2").replace("[0.5]", "[0.5, 0.5]")
        cli.parse_config(text + "  box0_center: [0.0, 0.0]\nexternal:\n  counts: [0, 0]\n")
        # with no well-typed n_types there is no length to hold a list to
        errs = errors_of(MINIMAL.replace("n_types: 1", "n_types: x").replace(
            "[0.5]", "[0.5, 0.5]"))
        assert not any("model.fugacity" in e for e in errs)


def test_a_reach_too_small_to_hit_exits_two(tmp_path, capsys, deadline):
    # the points are drawn from a cube around the box and kept in its shell
    # of width reach: at 1e-12 none lands, and the draw once ran forever
    path = tmp_path / "r.yaml"
    path.write_text(DENSITY.replace("geometry:", "  potentials:\n    - {types: [0, 0], "
                                    "range: 0.3, height: 1.0}\ngeometry:")
                    + "external:\n  counts: [1]\n  reach: 1.0e-12\n")
    with deadline(5.0):
        code = cli.main(["density", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "external reach 1e-12" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.yaml")), ids=lambda p: p.name)
def test_example_config_parses(path):
    cli.parse_config(path.read_text())


def documented_defaults():
    """Heading -> {key: default cell} for every key table in the schema doc."""
    tables, heading = {}, None
    for line in SCHEMA_DOC.read_text().splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").split()[0]
        elif line.startswith("| `"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            for key in re.findall(r"`([^`]+)`", cells[0]):
                tables.setdefault(heading, {})[key] = cells[-1]
    return tables


def documented_value(cell):
    """A default cell read back: REQUIRED, a `literal`, or None for prose."""
    if cell == "required":
        return experiments.REQUIRED
    if cell.startswith("`"):
        return yaml.safe_load(cell.split("`")[1])
    return None


class TestSchemaDoc:
    def test_doc_lists_the_table(self):
        table = {**experiments.SECTIONS, "potentials": experiments.POTENTIAL,
                 **experiments.OPTIONS}
        doc = documented_defaults()
        assert set(doc) == set(table)
        for heading, spec in table.items():
            assert set(doc[heading]) == set(spec), heading
            for key, f in spec.items():
                static = list(f.default) if isinstance(f.default, tuple) else f.default
                assert documented_value(doc[heading][key]) == static, (heading, key)

    def test_every_experiment_has_an_options_table(self):
        assert set(experiments.OPTIONS) == set(experiments.RUNNERS)


class TestCells:
    def test_csv_cells(self):
        assert cli._csv_cell(True) == "true"
        assert cli._csv_cell(np.bool_(False)) == "false"
        assert cli._csv_cell(np.int64(3)) == "3"
        assert cli._csv_cell(0.1) == repr(0.1)
        assert cli._csv_cell("pass") == "pass"

    def test_jsonable(self):
        assert cli._jsonable(np.float64(math.nan)) == "nan"
        assert cli._jsonable(math.inf) == "inf"
        assert cli._jsonable(-math.inf) == "-inf"
        assert cli._jsonable(np.arange(2)) == [0, 1]
        assert cli._jsonable({"a": (np.True_, np.int32(1))}) == {"a": [True, 1]}


class TestMain:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["density", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_errors_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace("[0.5]", "[1.2]"))
        code = cli.main(["density", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "model.fugacity[0]" in err

    @pytest.mark.parametrize("command,config,key", [
        ("density", DENSITY.replace("thin: 2", "thin: 0"), "experiment.options.thin"),
        ("density", MINIMAL.replace("geometry:", "  potentials: 5\ngeometry:"),
         "model.potentials"),
        ("density", DENSITY + "external:\n  points: [[{x: 1}]]\n", "external.points"),
        ("oracle", MINIMAL + "experiment:\n  options: {n_sites: 3, inner0: [0, 7], "
         "inner1: [7]}\n", "experiment.options.inner0"),
        ("oracle", MINIMAL + "experiment:\n  options: {n_sites: 3, inner0: [0], "
         "inner1: [2]}\n", "experiment.options.inner1"),
        ("oracle", MINIMAL + "experiment:\n  options: {n_sites: 4, inner0: [2, 3]}\n",
         "experiment.options.inner1"),
        ("q-kernel", MINIMAL.replace("5.0", "2.0\n  box0_center: [5.0, 0.0]"),
         "geometry.box0_center"),
        ("b-condition", B_CONDITION + "    grid_max: 0.5\n", "experiment.options.grid_max"),
        ("analytic", MINIMAL + "experiment:\n  options: {growth_grid_max: 0.4}\n",
         "experiment.options.growth_grid_max"),
        ("free-validate", MINIMAL + "experiment:\n  options: {sweeps: 0}\n",
         "experiment.options.sweeps"),
        ("k-tail", MINIMAL + "experiment:\n  options: {sweeps: 31, thin: 2}\n",
         "experiment.options.sweeps"),
        ("shift-invariance", MINIMAL + "experiment:\n  options: {sweeps: 0}\n",
         "experiment.options.sweeps"),
        ("density", DENSITY.replace("geometry:", "  potentials:\n"
                                    "    - {types: [0, 0], range: 1.0, height: 1.0}\n"
                                    "    - {types: [0, 0], range: 0.0}\ngeometry:")
         + "external:\n  counts: [1]\n", "external.counts"),
    ], ids=["zero-thin", "scalar-potentials", "non-numeric-points",
            "oracle-site-past-lattice", "oracle-inner-not-nested",
            "oracle-default-windows-not-nested", "box0-outside-box",
            "empty-b-condition-grid", "empty-growth-grid",
            "free-validate-no-snapshots", "k-tail-15-snapshots",
            "shift-invariance-no-snapshots", "external-reach-of-the-last-entry"])
    def test_bad_values_reported_not_raised(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "bad.yaml"
        path.write_text(config)
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err

    def test_out_default(self):
        args = cli.build_arg_parser().parse_args(
            ["density", "--config", "x.yaml"])
        assert args.out == "loopgas-out"

    def test_closed_form_run_and_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "b.yaml"
        cfg.write_text(B_CONDITION)
        out = tmp_path / "out"
        code = cli.main(["b-condition", "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        txt = capsys.readouterr().out
        assert "b-condition: verdict=n/a" in txt
        csv_text = (out / "results.csv").read_text()
        assert csv_text.splitlines()[0] == "chain,L,value"
        payload = json.loads((out / "summary.json").read_text())
        assert payload["experiment"] == "b-condition"
        assert payload["version"].startswith("loopgas-")
        assert payload["config"]["model"]["n_types"] == 2
        assert abs(payload["summary"]["sup"] - 5.072889398324453) < 1e-9

    def test_overflowing_control_series_reads_inf(self, tmp_path):
        # at beta = 0.0086 the series cap exp(-offset / (2 beta)) overflows a double
        cfg = tmp_path / "b.yaml"
        cfg.write_text(
            "model: {dimension: 3, n_types: 1, beta: 0.0086, fugacity: [0.5],\n"
            "        potentials: [{types: [0, 0], range: 1.87, height: 1.0}]}\n"
            "geometry: {box_half_side: 2.0, box0_half_side: 1.32}\n"
            "experiment: {name: b-condition}\n")
        out = tmp_path / "out"
        assert cli.main(["b-condition", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").read_text().splitlines()[0] == "chain,L,value"
        assert json.loads((out / "summary.json").read_text())["summary"]["sup"] == "inf"

    EXP_SQUARE = ("model: {dimension: 2, n_types: 1, beta: 1.0, fugacity: [0.5]}\n"
                  "geometry: {box_half_side: 5.0}\n"
                  "experiment: {name: %s, options: {growth_family: exp_square, %s: 30.0}}\n")

    def test_overflowing_growth_count_reads_inf(self, tmp_path):
        # the exp_square count exp(L^2) passes any double at L > 26.64
        cfg = tmp_path / "b.yaml"
        cfg.write_text(self.EXP_SQUARE % ("b-condition", "grid_max"))
        out = tmp_path / "out"
        assert cli.main(["b-condition", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["summary"]["sup"] == "inf"
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[-1] == "0,30.0,inf" and not any("nan" in row for row in rows)

    def test_overflowing_growth_count_reads_inf_in_analytic(self, tmp_path):
        cfg = tmp_path / "a.yaml"
        cfg.write_text(self.EXP_SQUARE % ("analytic", "growth_grid_max"))
        out = tmp_path / "out"
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert "0,external_control_bound,inf,27.0,nan" in rows

    def test_overflowing_square_integral_bound_reads_inf(self, tmp_path):
        # volume 100 times z/(1-z) = 9: exp(900) is past any double
        cfg = tmp_path / "a.yaml"
        cfg.write_text(
            "model: {dimension: 2, n_types: 1, beta: 1.0, fugacity: [0.9]}\n"
            "geometry: {box_half_side: 12.0, box0_half_side: 5.0}\n"
            "experiment: {name: analytic}\n")
        out = tmp_path / "out"
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        rows = (out / "results.csv").read_text().splitlines()
        assert any(",hs_bound_vs_numeric,inf," in row for row in rows)

    def test_csv_byte_determinism(self, tmp_path):
        cfg = tmp_path / "d.yaml"
        cfg.write_text(DENSITY)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert cli.main(["density", "--config", str(cfg),
                             "--out", str(out)]) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_recorded(self, tmp_path):
        cfg = tmp_path / "d.yaml"
        cfg.write_text(DENSITY)
        out = tmp_path / "o"
        assert cli.main(["density", "--config", str(cfg), "--out", str(out),
                         "--seed", "99"]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["seed"] == 99

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("""
model:
  dimension: 2
  n_types: 1
  beta: 1.0
  fugacity: [0.4]
geometry:
  box_half_side: 4.0
  box0_half_side: 1.0
  shift: [2.0, 0.0]
sampler:
  seed: 1
  slices_per_beta: 2
experiment:
  name: shift-invariance
  options:
    sweeps: 32
    burn_in: 4
""")
        code = cli.main(["shift-invariance", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "window margin" in capsys.readouterr().err

    def test_crowded_probe_windows_refused_before_any_sweep(self, tmp_path, capsys,
                                                            monkeypatch):
        # box0 of half side 1.0 shifted by 2.0 reaches the edge of a box of
        # half side 3.0, short of the free gas's 3 thermal lengths: a config
        # error, with no output directory and no sweep
        def no_sweep(chain):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(mc.Chain, "sweep", no_sweep)
        cfg = tmp_path / "s.yaml"
        cfg.write_text(MINIMAL.replace("5.0", "3.0\n  box0_half_side: 1.0\n"
                                       "  shift: [2.0, 0.0]")
                       + "experiment:\n  options: {sweeps: 32, burn_in: 4}\n")
        out = tmp_path / "o"
        assert cli.main(["shift-invariance", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: at geometry: window margin")
        assert not out.exists()

    def test_probe_margin_reads_the_range_the_run_uses(self):
        # a later entry for a type pair replaces an earlier one, as in
        # build_params: range 0.25 needs a margin of 3.25 and the shifted
        # box0 has 3.5, range 3.0 needs 6.0
        def config(last_range):
            return MINIMAL.replace("geometry:", "  potentials:\n"
                                   "    - {types: [0, 0], range: 3.0, height: 1.0}\n"
                                   "    - {types: [0, 0], range: %r, height: 1.0}\n"
                                   "geometry:" % last_range)

        cli.parse_config(config(0.25), "shift-invariance")
        with pytest.raises(cli.ConfigError, match="window margin"):
            cli.parse_config(config(3.0), "shift-invariance")

    def test_one_site_oracle_runs_on_its_default_windows(self, tmp_path, capsys):
        # on one site both default windows are empty, and empty nests in empty
        cfg = tmp_path / "o.yaml"
        cfg.write_text(MINIMAL + "experiment:\n  options: {n_sites: 1}\n")
        assert cli.main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "oracle: verdict=pass" in capsys.readouterr().out

    def test_failing_verdict_exit_one(self, tmp_path, capsys):
        # window equal to the whole box: confinement clips loops near the
        # wall and lowers the anchor density, so the built-in check must fail
        cfg = tmp_path / "f.yaml"
        cfg.write_text("""
model:
  dimension: 2
  n_types: 1
  beta: 1.0
  fugacity: [0.5]
geometry:
  box_half_side: 4.0
  window_half_side: 4.0
sampler:
  seed: 12
  slices_per_beta: 4
experiment:
  name: free-validate
  options:
    sweeps: 1600
    burn_in: 150
    thin: 5
""")
        code = cli.main(["free-validate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "verdict=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("beta, sampler, options", [
        # a wide interval: the Dirichlet trace needs about a thousand terms
        (0.01, "", "    dirichlet_half_side: 20\n"),
        # thresholds far below the thermal length of a single slice
        (1.0, "sampler:\n  slices_per_beta: 1\n", "    deviation_thresholds: [0.1, 0.2]\n"),
        # a threshold no draw reaches: the tail is 3e-8 and every draw reads 0
        (1.0, "", "    deviation_thresholds: [0.5, 1.0, 3.0]\n"),
    ], ids=["wide-dirichlet", "narrow-deviation", "unreached-deviation"])
    def test_bridge_laws_exact_at_any_scale(self, tmp_path, capsys, beta, sampler, options):
        cfg = tmp_path / "b.yaml"
        cfg.write_text("model:\n  dimension: 1\n  n_types: 1\n  beta: %r\n"
                       "  fugacity: [0.5]\ngeometry:\n  box_half_side: 5.0\n%s"
                       "experiment:\n  name: bridge-laws\n  options:\n%s"
                       % (beta, sampler, options))
        code = cli.main(["bridge-laws", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert "verdict=pass" in capsys.readouterr().out
        assert code == 0

    def test_checkpoint_written_and_loadable(self, tmp_path):
        cfg = tmp_path / "d.yaml"
        cfg.write_text(DENSITY + "output:\n  checkpoint: true\n")
        out = tmp_path / "o"
        assert cli.main(["density", "--config", str(cfg),
                         "--out", str(out)]) == 0
        ckpt = out / "chain.ckpt"
        assert ckpt.exists()
        from loopgas.model import ModelParams, zero_potential
        params = ModelParams(2, 1, 1.0, (0.4,), [[zero_potential()]])
        chain = mc.load_checkpoint(str(ckpt), params)
        assert chain.sweeps_done == 10 + 40
