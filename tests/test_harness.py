import json

import numpy as np
import pytest

from dyadlab.cli import build_parser, main
from dyadlab.grid import GridSignal
from dyadlab.harness import (
    ExperimentConfig,
    run,
    random_convex_collection,
    random_grid_set,
    random_signal,
    trial_generators,
)
from dyadlab.io import (
    read_choice,
    read_directions,
    read_grid2d,
    read_grid_set,
    read_signal,
    read_tile_collection,
    write_choice,
    write_directions,
    write_grid2d,
    write_grid_set,
    write_signal,
    write_tile_collection,
)
from dyadlab.plane import Grid2D
from dyadlab.tiles import ChoiceFunction


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            config = ExperimentConfig(
                theorem="fs", resolution=6, trials=5, seed=42, family_size=4, p=3.0,
                out=str(out),
            )
            run(config)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()

    def test_different_seeds_differ(self):
        _, report_a, _ = run(ExperimentConfig(theorem="fs", resolution=5, trials=3, seed=1))
        _, report_b, _ = run(ExperimentConfig(theorem="fs", resolution=5, trials=3, seed=2))
        assert report_a["max_ratio"] != report_b["max_ratio"]

    def test_trial_generators_are_independent_and_reproducible(self):
        gens_a, keys_a = trial_generators(7, 4)
        gens_b, keys_b = trial_generators(7, 4)
        assert keys_a == keys_b
        draws_a = [g.integers(0, 1 << 30) for g in gens_a]
        draws_b = [g.integers(0, 1 << 30) for g in gens_b]
        assert draws_a == draws_b
        assert len(set(draws_a)) == len(draws_a)

    def test_zero_trials(self):
        manifest, report, ok = run(
            ExperimentConfig(theorem="fs", resolution=5, trials=0, seed=0)
        )
        assert ok and report["trials"] == 0
        assert manifest.trial_seeds == []

    def test_manifest_carries_versions_and_schema(self):
        manifest, _, _ = run(ExperimentConfig(theorem="fs", resolution=5, trials=1, seed=0))
        assert manifest.versions["csv_schema"] == 1
        assert "dyadlab" in manifest.versions and "numpy" in manifest.versions
        json.loads(manifest.to_json())


class TestReportSerialization:
    def test_ratio_report_json(self):
        rng = np.random.default_rng(20)
        from dyadlab.maximal import restricted_double_sum, ScaleChoice
        from dyadlab.maximal import exceptional_complement

        e = random_grid_set(rng, 5)
        f_set = random_grid_set(rng, 5)
        h = random_grid_set(rng, 5)
        g = random_grid_set(rng, 5)
        h_prime = exceptional_complement(h, g, 4.0)
        choice = ScaleChoice(5, rng.integers(0, 6, size=32))
        report = restricted_double_sum(e, f_set, h_prime, g, choice, 2.0, h=h)
        parsed = json.loads(report.to_json())
        assert set(parsed) >= {"lhs", "rhs", "ratio", "buckets"}
        for bucket in parsed["buckets"]:
            assert set(bucket) == {"n", "m", "sum", "count_bound_ratio"}

    def test_principle_report_json(self):
        from dyadlab.harness import maximal_operator_family
        from dyadlab.principle import measure_condition, trim_h_builder

        rng = np.random.default_rng(21)
        family, _ = maximal_operator_family(rng, 5, 2)
        h = random_grid_set(rng, 5)
        g = random_grid_set(rng, 5)
        report = measure_condition(family, h, g, trim_h_builder(), 2.5)
        parsed = json.loads(report.to_json())
        assert set(parsed) >= {"p", "C_p", "B_p", "A_p", "q", "lhs3", "rhs3", "ratio", "levels"}

    def test_decay_report_json(self):
        from dyadlab.carleson import norm_decay_ladder

        decay = norm_decay_ladder(5, [0.5, 0.25], seed=9, iters=30)
        parsed = json.loads(decay.to_json())
        assert set(parsed) >= {"ratio_ladder", "slope", "intercept", "thm71", "unconverged"}
        assert all(set(pt) == {"log_ratio", "log_norm"} for pt in parsed["ratio_ladder"])

    def test_directional_report_fields(self):
        from dyadlab.directional import DirectionSet, weighted_hilbert_ratio
        from dyadlab.harness import random_signal

        rng = np.random.default_rng(22)
        f = random_signal(rng, 5, complex_values=True)
        u = GridSignal(5, np.exp(0.3 * rng.standard_normal(32)))
        report = weighted_hilbert_ratio(f, u)
        parsed = json.loads(report.to_json())
        assert {"A1", "A2", "C21"} <= set(parsed)


class TestConfigValidation:
    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="theorem"):
            ExperimentConfig(theorem="nope").validate()

    def test_resolution_cap(self):
        with pytest.raises(ValueError, match="0 <= L <= 12"):
            ExperimentConfig(theorem="fs", resolution=13).validate()

    def test_fs_exponent(self):
        with pytest.raises(ValueError, match="1 < p < inf"):
            ExperimentConfig(theorem="fs", p=1.0).validate()

    def test_biparam_ranges(self):
        with pytest.raises(ValueError, match="2 < p < inf"):
            ExperimentConfig(theorem="biparam", p=2.0).validate()
        with pytest.raises(ValueError, match="0 < eps < 1/2"):
            ExperimentConfig(theorem="biparam", p=3.0, eps=0.7).validate()

    def test_cordoba_window(self):
        with pytest.raises(ValueError, match=r"\|1 - 2/q\| < 1/p"):
            ExperimentConfig(theorem="cordoba", p=2.0, q=4.5).validate()

    def test_principle_ordering(self):
        with pytest.raises(ValueError, match="p0 < q < p1"):
            ExperimentConfig(theorem="principle", p=2.0, q=1.5).validate()


class TestIORoundTrips:
    def test_signal(self, tmp_path):
        rng = np.random.default_rng(0)
        f = random_signal(rng, 5, complex_values=True)
        path = tmp_path / "signal.csv"
        write_signal(path, f)
        assert np.array_equal(read_signal(path).values, f.values)

    def test_grid_set(self, tmp_path):
        rng = np.random.default_rng(1)
        s = random_grid_set(rng, 5)
        path = tmp_path / "set.csv"
        write_grid_set(path, s)
        assert np.array_equal(read_grid_set(path).mask, s.mask)

    def test_tile_collection(self, tmp_path):
        rng = np.random.default_rng(2)
        collection = random_convex_collection(rng, 5)
        path = tmp_path / "tiles.csv"
        write_tile_collection(path, collection)
        assert read_tile_collection(path, 5).bitiles == collection.bitiles

    def test_choice(self, tmp_path):
        choice = ChoiceFunction(4, np.arange(16))
        path = tmp_path / "choice.csv"
        write_choice(path, choice)
        assert np.array_equal(read_choice(path).freqs, choice.freqs)

    def test_grid2d(self, tmp_path):
        rng = np.random.default_rng(3)
        f = Grid2D(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        path = tmp_path / "plane.csv"
        write_grid2d(path, f)
        assert np.array_equal(read_grid2d(path).values, f.values)

    def test_directions(self, tmp_path):
        from dyadlab.directional import DirectionSet

        dirs = DirectionSet.uniform(6)
        path = tmp_path / "dirs.csv"
        write_directions(path, dirs)
        back = read_directions(path)
        assert [(v.vx, v.vy) for v in back] == [(v.vx, v.vy) for v in dirs]


class TestIOErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n0,1\n")
        with pytest.raises(ValueError, match="expected header"):
            read_grid_set(path)

    def test_malformed_row_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,member\n0,1\nnot_an_int,0\n")
        with pytest.raises(ValueError, match="row 2"):
            read_grid_set(path)

    def test_bad_member_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,member\n0,2\n1,0\n")
        with pytest.raises(ValueError, match="row 1"):
            read_grid_set(path)

    def test_bad_row_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,member\n0,1\n1,0\n2,1\n")
        with pytest.raises(ValueError, match="power of two"):
            read_grid_set(path)

    def test_tile_out_of_resolution(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text("k,n,freq_offset\n7,0,0\n")
        with pytest.raises(ValueError, match="row 1"):
            read_tile_collection(path, 4)

    def test_repeated_tile_row(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text("k,n,freq_offset\n1,0,0\n0,0,1\n1,0,0\n")
        with pytest.raises(ValueError, match="row 3"):
            read_tile_collection(path, 3)

    def test_repeated_set_index(self, tmp_path):
        path = tmp_path / "set.csv"
        path.write_text("index,member\n0,1\n1,0\n1,1\n3,0\n")
        with pytest.raises(ValueError, match="row 3"):
            read_grid_set(path)

    @pytest.mark.parametrize(
        "rows, bad_row",
        [
            ("0,1\n1,2\n-1,3\n3,0\n", 3),  # negative index would wrap to 3
            ("0,1\n1,2\n1,3\n3,0\n", 3),  # repeated index
            ("0,1\n1,2\n3,0\n4,0\n", 4),  # index 2 missing
            ("0,1\n1,2\n2,4\n3,0\n", 3),  # frequency outside [0, 4)
        ],
        ids=["negative", "repeated", "missing", "frequency"],
    )
    def test_bad_choice_index(self, tmp_path, rows, bad_row):
        path = tmp_path / "choice.csv"
        path.write_text("index,freq\n" + rows)
        with pytest.raises(ValueError, match=f"row {bad_row}"):
            read_choice(path)

    @pytest.mark.parametrize(
        "cells, bad_row",
        [
            ("0,0 0,1 1,0 -1,-1", 4),  # negative pair would wrap to (1, 1)
            ("0,0 0,1 1,0 1,2", 4),  # column outside [0, 2)
            ("0,0 0,1 0,1 1,1", 3),  # repeated cell
            ("0,0 0,1 1,0 0,0", 4),  # cell (1, 1) missing
        ],
        ids=["negative", "out-of-range", "repeated", "missing"],
    )
    def test_bad_grid2d_cell(self, tmp_path, cells, bad_row):
        path = tmp_path / "plane.csv"
        path.write_text("row,col,re,im\n" + "".join(f"{c},1.0,0.0\n" for c in cells.split()))
        with pytest.raises(ValueError, match=f"row {bad_row}"):
            read_grid2d(path)


class TestCLI:
    def test_only_estimate22_takes_plot(self):
        assert build_parser().parse_args(["estimate-22", "--plot"]).plot
        for flag in (["--plot"], ["--s", "2"], ["--t", "3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["verify", "fs", *flag])

    def test_verify_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "verify", "fs",
                "--resolution", "5",
                "--trials", "3",
                "--seed", "3",
                "--out", str(tmp_path / "fs"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "fs" / "report.json").read_text())
        assert report["ok"] is True
        assert (tmp_path / "fs" / "manifest.json").exists()
        assert (tmp_path / "fs" / "trials.csv").exists()

    def test_invalid_config_exits_two(self, capsys):
        assert main(["verify", "fs", "--p", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "1 < p < inf" in err

    def test_decompose(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        collection = random_convex_collection(rng, 5)
        signal = random_signal(rng, 5)
        col_path = tmp_path / "col.csv"
        sig_path = tmp_path / "sig.csv"
        write_tile_collection(col_path, collection)
        write_signal(sig_path, signal)
        out = tmp_path / "dec.csv"
        code = main(
            ["decompose", str(col_path), str(sig_path), "--resolution", "5", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "n,m,tree,top_scale,top_offset,top_freq,members,count_ratio"

    def test_decompose_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,n,freq_offset\nx,y,z\n")
        sig = tmp_path / "sig.csv"
        write_signal(sig, GridSignal.constant(4, 1.0))
        code = main(["decompose", str(bad), str(sig), "--resolution", "4", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "row 1" in capsys.readouterr().err

    def test_estimate22_short_deterministic(self, tmp_path, capsys):
        code = main(
            [
                "estimate-22",
                "--resolution", "6",
                "--ladder", "4",
                "--seed", "2",
                "--branch", "h",
                "--epsilon", "0.1",
                "--out", str(tmp_path / "decay"),
            ]
        )
        out = capsys.readouterr().out
        report = json.loads(out)
        assert "h" in report and len(report["h"]["ratio_ladder"]) == 4
        assert code in (0, 1)
        # determinism: same invocation reproduces the same slope
        code2 = main(
            [
                "estimate-22",
                "--resolution", "6",
                "--ladder", "4",
                "--seed", "2",
                "--branch", "h",
                "--epsilon", "0.1",
            ]
        )
        report2 = json.loads(capsys.readouterr().out)
        assert report2["h"]["slope"] == report["h"]["slope"]
