import copy

import numpy as np
import pytest

from loopgas import analytic, experiments, oracle


def free_cfg(z=0.4, half=4.0, box0=1.0, seed=3, **sampler):
    sampler = {"seed": seed, "slices_per_beta": 4, "k_max": 8, **sampler}
    return {
        "model": {"dimension": 2, "n_types": 1, "beta": 1.0, "fugacity": [z]},
        "geometry": {"box_half_side": half, "box0_half_side": box0},
        "sampler": sampler,
    }


def with_options(cfg, name, **options):
    cfg = copy.deepcopy(cfg)
    cfg["experiment"] = {"name": name, "options": options}
    return cfg


class TestRunnerGuards:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            experiments.run_experiment("nope", free_cfg())

    def test_free_validate_needs_free_model(self):
        cfg = free_cfg()
        cfg["model"]["potentials"] = [
            {"types": [0, 0], "range": 0.5, "height": 1.0}]
        cfg = with_options(cfg, "free-validate", sweeps=10, burn_in=2)
        with pytest.raises(ValueError, match="interaction-free"):
            experiments.run_experiment("free-validate", cfg)


class TestClosedFormExperiments:
    def test_b_condition(self):
        cfg = free_cfg()
        cfg["model"]["n_types"] = 2
        cfg["model"]["fugacity"] = [0.5, 0.5]
        cfg = with_options(cfg, "b-condition", growth_family="linear", c=1.0)
        res = experiments.run_experiment("b-condition", cfg)
        assert res.verdict == "n/a"
        assert res.columns == ["chain", "L", "value"]
        assert len(res.rows) == 19  # grid 1.0 .. 10.0 step 0.5
        assert set(res.summary) == {"sup", "arg_L", "c", "edge_flag", "note"}
        assert abs(res.summary["sup"] - 5.072889398324453) < 1e-9
        assert res.summary["arg_L"] == 2.0

    def test_oracle(self):
        cfg = with_options(free_cfg(), "oracle", n_sites=3, n_max=2,
                           inner0=[0, 1], inner1=[0])
        res = experiments.run_experiment("oracle", cfg)
        assert res.verdict == "pass"
        records = [r["record"] for r in res.rows]
        assert records.count("sector") == 3  # totals 0, 1, 2 for one type
        assert "grand" in records and "compatibility_deviation" in records
        assert res.summary["n_sites"] == 3

    def test_oracle_builds_each_sector_once(self, monkeypatch):
        # one Gibbs pass serves the sector table, the matrix and the
        # compatibility check: one Hamiltonian per sector, none rebuilt
        built = []
        build = oracle.build_hamiltonian
        monkeypatch.setattr(oracle, "build_hamiltonian",
                            lambda *args: built.append(args[1]) or build(*args))
        cfg = free_cfg()
        cfg["model"].update(dimension=1, n_types=2, fugacity=[0.3, 0.5], potentials=[
            {"types": [0, 1], "hard_core": 0.5, "range": 1.5, "height": 0.6}])
        res = experiments.run_experiment("oracle", with_options(cfg, "oracle", n_sites=3))
        sectors = [r["key"] for r in res.rows if r["record"] == "sector"]
        assert len(sectors) == 9 and len(built) == len(set(built)) == len(sectors)

    def test_analytic(self):
        cfg = with_options(free_cfg(z=0.5, box0=0.5), "analytic",
                           points_per_axis=3, n_samples=60)
        res = experiments.run_experiment("analytic", cfg)
        assert res.verdict == "pass"
        by_name = {r["name"]: r for r in res.rows}
        hs = by_name["hs_bound_vs_numeric"]
        assert hs["value"] > hs["reference"] > 1.0
        assert "moment_series[-1,z=0.5]" in by_name
        assert by_name["moment_series[2,z=0.1]"]["deviation"] < 1e-10

    def test_deviation_row_whose_own_error_collapses(self):
        # the sample's own error collapses; the row is judged on the null error
        row, = experiments.skorohod_rows([3.0], 1, 0.0, 1.0, 8, 3000,
                                         np.random.default_rng(0))
        assert 0.0 < row["target"] < 1e-7
        assert row["std_error"] < 1e-12 and abs(row["value"] - row["target"]) > 1e-8
        assert row["pass"]

    def test_deviation_rows_see_a_path_variance_bias(self, monkeypatch):
        sample = experiments.bridge.sample_bridges
        monkeypatch.setattr(experiments.bridge, "sample_bridges",
                            lambda *args: 1.3 * sample(*args))
        rows = experiments.skorohod_rows([0.5, 1.0], 1, 0.0, 1.0, 8, 3000,
                                         np.random.default_rng(0))
        assert not all(r["pass"] for r in rows)


class TestSamplerExperiments:
    def test_dirichlet_trace_on_the_square(self):
        # the stay probability is a product over coordinates of batched
        # interval survivals; the trace on the square is the 1-d trace squared
        est, se = experiments.dirichlet_trace_mc(1.0, 1.0, 8, 20000,
                                                 np.random.default_rng(8), dimension=2)
        assert abs(est - analytic.dirichlet_box_trace(1.0, 1.0, 2)) <= 4.0 * se

    def test_bridge_laws_pass(self):
        cfg = free_cfg(seed=2, slices_per_beta=8)
        cfg = with_options(cfg, "bridge-laws", n_draws=3000,
                           deviation_thresholds=[1.0], dirichlet_draws=3000,
                           ks_draws=2500)
        res = experiments.run_experiment("bridge-laws", cfg)
        assert res.verdict == "pass"
        checks = {r["check"] for r in res.rows}
        assert checks == {"first_leg_deviation", "dirichlet_trace",
                          "marginal_ks"}

    def test_kernel_rows(self):
        cfg = with_options(free_cfg(), "kernel", n_pairs=1, burn_in=20,
                           n_snapshots=16, thin=1, inner_per_snapshot=1,
                           apply_exclusion=False)
        res = experiments.run_experiment("kernel", cfg)
        assert res.verdict == "n/a"
        row = res.rows[0]
        assert row["status"] == "ok"
        # free weights are computed exactly, so every snapshot agrees
        assert row["value"] > 0.0 and row["std_error"] == 0.0
        assert row["counts"] == "1"

    def test_q_kernel_rows(self):
        cfg = with_options(free_cfg(), "q-kernel", n_pairs=1, n_samples=200)
        res = experiments.run_experiment("q-kernel", cfg)
        assert res.verdict == "n/a"
        row = res.rows[0]
        assert row["status"] == "ok"
        assert row["value"] > 0.0
        assert row["truncation_bound"] < 1e-2

    def test_k_tail_pass(self):
        cfg = with_options(free_cfg(), "k-tail", k0=[2, 30], burn_in=80,
                           sweeps=400, thin=2)
        res = experiments.run_experiment("k-tail", cfg)
        assert res.verdict == "pass"
        assert [r["k0"] for r in res.rows] == [2, 30]
        assert res.rows[1]["probability"] == 0.0

    def test_shift_invariance_pass(self):
        cfg = free_cfg(half=5.5, box0=0.75, seed=4)
        cfg["geometry"]["shift"] = [1.5, 0.0]
        cfg = with_options(cfg, "shift-invariance", sweeps=600, burn_in=100,
                           thin=2)
        res = experiments.run_experiment("shift-invariance", cfg)
        assert res.verdict == "pass"
        assert res.summary["max_sigma"] <= 3.0
        dens = [r for r in res.rows if r["kind"] == "anchor_density"]
        assert len(dens) == 1 and dens[0]["diff_std_error"] > 0.0

    def test_density_boundary_warning(self):
        cfg = free_cfg(half=2.0, seed=6)
        cfg["model"]["potentials"] = [
            {"types": [0, 0], "range": 0.5, "height": 0.7}]
        cfg["geometry"]["window_half_side"] = 1.9
        cfg = with_options(cfg, "density", sweeps=40, burn_in=20, thin=2)
        res = experiments.run_experiment("density", cfg)
        assert "margin" in res.summary["warning"]
        assert res.verdict == "n/a"


class TestReplication:
    def test_chain_column_and_per_chain_summary(self):
        cfg = with_options(free_cfg(), "oracle", n_sites=3, n_max=2,
                           inner0=[0, 1], inner1=[0])
        cfg["sampler"]["chains"] = 2
        res = experiments.run_experiment("oracle", cfg)
        assert res.verdict == "pass"
        assert {r["chain"] for r in res.rows} == {0, 1}
        assert res.summary["chains"] == 2
        assert len(res.summary["per_chain"]) == 2

    def test_all_na_merges_to_na(self):
        cfg = with_options(free_cfg(), "b-condition", growth_family="linear",
                           c=1.0)
        cfg["sampler"]["chains"] = 2
        res = experiments.run_experiment("b-condition", cfg)
        assert res.verdict == "n/a"
        assert res.summary["chains"] == 2
