import cmath
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dyadlab import io as io_module
from dyadlab.cli import _config_from_args, build_parser, main
from dyadlab.grid import MAX_RESOLUTION, Grid2D, GridSet, GridSignal
from dyadlab.harness import (
    THEOREMS,
    ExperimentConfig,
    run,
    random_grid_set,
    random_signal,
    trial_generators,
)
from dyadlab.io import (
    json_text,
    open_new,
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
from dyadlab.tiles import BiTile, ChoiceFunction, TileCollection
from oracles import all_bitiles, random_convex_collection


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
        _, report_a = run(ExperimentConfig(theorem="fs", resolution=5, trials=3, seed=1))
        _, report_b = run(ExperimentConfig(theorem="fs", resolution=5, trials=3, seed=2))
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
        manifest, report = run(
            ExperimentConfig(theorem="fs", resolution=5, trials=0, seed=0)
        )
        assert report["ok"] and report["trials"] == 0
        assert manifest["trial_seeds"] == []

    def test_manifest_carries_versions_and_schema(self):
        manifest, _ = run(ExperimentConfig(theorem="fs", resolution=5, trials=1, seed=0))
        assert manifest["versions"]["csv_schema"] == 1
        assert "dyadlab" in manifest["versions"] and "numpy" in manifest["versions"]
        json.loads(json_text(manifest))


class TestMaximalOperatorFamily:
    """`harness.maximal_operator_family`, the family `verify principle` measures."""

    def test_maximal_family_runs_on_arrays(self, monkeypatch):
        # the operators apply the array forms of the linearized maximal
        # operator and its adjoint, bit for bit, and wrap no GridSignal
        from dyadlab.harness import maximal_operator_family
        from dyadlab.maximal import linearized_maximal

        rng = np.random.default_rng(22)
        family, choices = maximal_operator_family(rng, 6, 3)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        expected = [
            (linearized_maximal(GridSignal(6, v), ch).values, ch.average_adjoint(v))
            for ch in choices
        ]

        def refuse(self):
            raise AssertionError("a GridSignal was built")

        monkeypatch.setattr(GridSignal, "__post_init__", refuse)
        assert len(family) == len(expected)
        for j, (forward, backward) in enumerate(expected):
            assert family.apply([j], v[None]).tobytes() == forward.tobytes()
            assert family.adjoint([j], v[None]).tobytes() == backward.tobytes()
            assert family.apply([j], v.real[None]).tobytes() == family.apply([j], v.real[None] + 0j).tobytes()


class TestExactMassCap:
    """verify biparam checks each mass-cap ratio against 1 exactly: a ratio
    of 1 passes, the next float above fails."""

    @pytest.mark.parametrize("cap, ok", [(1.0, True), (float(np.nextafter(1.0, 2.0)), False)])
    def test_cap_ratio_at_and_past_one(self, monkeypatch, cap, ok):
        import dyadlab.biparam as biparam

        real = biparam.verify_biparam

        def capped(*args, **kwargs):
            report = real(*args, **kwargs)
            report["mass_cap_ratios"] = [0.5, cap]
            return report

        monkeypatch.setattr(biparam, "verify_biparam", capped)
        config = ExperimentConfig(theorem="biparam", resolution=4, trials=2, eps=0.45)
        _, report = run(config)
        assert report["ok"] is ok
        assert report["max_mass_cap_ratio"] == cap


class TestConfigValidation:
    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="theorem"):
            ExperimentConfig(theorem="nope").validate()

    def test_resolution_cap(self):
        with pytest.raises(ValueError, match="0 <= L <= 12"):
            ExperimentConfig(theorem="fs", resolution=13).validate()

    def test_resolution_zero_only_where_defined(self):
        for theorem in ("biparam", "principle"):
            with pytest.raises(ValueError, match=f"{theorem} needs resolution 1 <= L <= 12"):
                ExperimentConfig(theorem, resolution=0).validate()
            ExperimentConfig(theorem, resolution=1).validate()
        for theorem in ("fs", "cordoba", "cordoba-weighted", "carleson"):
            ExperimentConfig(theorem, resolution=0).validate()

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_library_defaults_are_the_cli_defaults(self, theorem):
        """A config with no parameters takes the defaults of those its
        theorem reads, which validate, are numbers in the manifest and are
        the CLI's; every parameter the theorem does not read stays None."""
        config = ExperimentConfig(theorem)
        config.validate()
        defaults = THEOREMS[theorem].defaults
        expected = {name: None for name in ("q", "eps", "p1")} | defaults
        if theorem == "principle":
            expected["p1"] = 2.0 * expected["q"] - expected["p"]
        assert {name: asdict(config)[name] for name in expected} == expected
        assert _config_from_args(build_parser().parse_args(["verify", theorem])) == config
        explicit = ExperimentConfig(theorem, p=4.0)
        assert explicit.p == 4.0 and explicit.q == expected["q"]

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


def _loop_numbered(path, rows, width: int, kind: str):
    """(row number, row) over the data rows; a row whose field count is not
    the header's fails."""
    for number, row in enumerate(rows, start=1):
        if len(row) != width:
            io_module._fail(path, number, f"bad {kind} row {row!r} (expected {width} fields, got {len(row)})")
        yield number, row


def _loop_claim(path, number, index, seen):
    if not 0 <= index < seen.size or seen[index]:
        io_module._fail(path, number, f"index {index} out of range or repeated")
    seen[index] = True


def loop_read_signal(path) -> GridSignal:
    """The row loop that `read_signal` replaced, kept as its oracle."""
    rows = io_module._open_rows(path, io_module.SIGNAL_HEADER)
    resolution = io_module._resolution_for(len(rows), path)
    values = np.zeros(len(rows), dtype=np.complex128)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in _loop_numbered(path, rows, 3, "signal"):
        try:
            index = int(row[0])
            value = float(row[1]) + 1j * float(row[2])
        except ValueError as exc:
            io_module._fail(path, number, f"bad signal row {row!r} ({exc})")
        _loop_claim(path, number, index, seen)
        if not cmath.isfinite(value):
            io_module._fail(path, number, f"value {value} is not finite")
        values[index] = value
    return GridSignal(resolution, values)


def loop_read_grid_set(path) -> GridSet:
    """The row loop that `read_grid_set` replaced, kept as its oracle."""
    rows = io_module._open_rows(path, io_module.SET_HEADER)
    resolution = io_module._resolution_for(len(rows), path)
    mask = np.zeros(len(rows), dtype=bool)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in _loop_numbered(path, rows, 2, "set"):
        try:
            index = int(row[0])
            member = int(row[1])
        except ValueError as exc:
            io_module._fail(path, number, f"bad set row {row!r} ({exc})")
        if member not in (0, 1):
            io_module._fail(path, number, f"member must be 0 or 1, got {member}")
        _loop_claim(path, number, index, seen)
        mask[index] = bool(member)
    return GridSet(resolution, mask)


def loop_read_choice(path) -> ChoiceFunction:
    """The row loop that `read_choice` replaced, kept as its oracle."""
    rows = io_module._open_rows(path, io_module.CHOICE_HEADER)
    resolution = io_module._resolution_for(len(rows), path)
    freqs = np.zeros(len(rows), dtype=np.int64)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in _loop_numbered(path, rows, 2, "choice"):
        try:
            index = int(row[0])
            freq = int(row[1])
        except ValueError as exc:
            io_module._fail(path, number, f"bad choice row {row!r} ({exc})")
        _loop_claim(path, number, index, seen)
        if not 0 <= freq < len(rows):
            io_module._fail(path, number, f"frequency {freq} outside [0, {len(rows)})")
        freqs[index] = freq
    return ChoiceFunction(resolution, freqs)


def loop_read_grid2d(path) -> Grid2D:
    """The row loop that `read_grid2d` replaced, kept as its oracle."""
    rows = io_module._open_rows(path, io_module.PLANE_HEADER)
    resolution = io_module._resolution_for(len(rows), path, axes=2)
    side = 1 << resolution
    values = np.zeros((side, side), dtype=np.complex128)
    seen = np.zeros((side, side), dtype=bool)
    for number, row in _loop_numbered(path, rows, 4, "plane"):
        try:
            cell = (int(row[0]), int(row[1]))
            value = float(row[2]) + 1j * float(row[3])
        except ValueError as exc:
            io_module._fail(path, number, f"bad plane row {row!r} ({exc})")
        if not all(0 <= i < side for i in cell) or seen[cell]:
            io_module._fail(path, number, f"index {cell} out of range or repeated")
        seen[cell] = True
        if not cmath.isfinite(value):
            io_module._fail(path, number, f"value {value} is not finite")
        values[cell] = value
    return Grid2D(resolution, values)


def loop_read_tile_collection(path, resolution: int) -> TileCollection:
    """The row loop that `read_tile_collection` replaced, kept as its oracle,
    with the field-count check every reader now makes first in a row."""
    rows = io_module._open_rows(path, io_module.TILE_HEADER)
    bitiles = set()
    for number, row in _loop_numbered(path, rows, 3, "bi-tile"):
        try:
            p = BiTile(int(row[0]), int(row[1]), int(row[2]))
        except (IndexError, ValueError) as exc:
            io_module._fail(path, number, f"bad bi-tile row {row!r} ({exc})")
        if not p.fits(resolution):
            io_module._fail(path, number, f"bi-tile {row!r} does not fit resolution {resolution}")
        if p in bitiles:
            io_module._fail(path, number, f"bi-tile {row!r} is repeated")
        bitiles.add(p)
    return TileCollection.from_bitiles(resolution, bitiles)


def sorted_write_tile_collection(path, collection: TileCollection) -> None:
    """The writer that `write_tile_collection` replaced, kept as its oracle:
    one row per member of `collection.bitiles`, sorted."""
    with io_module.open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "n", "freq_offset"])
        for p in sorted(collection.bitiles, key=lambda p: (p.scale, p.offset, p.freq_index)):
            writer.writerow([p.scale, p.offset, p.freq_index])


def _outcome(read, path):
    """The error message of `read`, a reader that returns an array, or the
    array's dtype, shape and bytes."""
    try:
        array = read(path)
    except ValueError as exc:
        return str(exc)
    return array.dtype.str, array.shape, array.tobytes()


# per reader of a file with one row per cell: the reader and its row loop,
# each returning its array, the header, and a seed
CELL_READERS = {
    "signal": (lambda p: read_signal(p).values, lambda p: loop_read_signal(p).values, "index,re,im", 70),
    "set": (lambda p: read_grid_set(p).mask, lambda p: loop_read_grid_set(p).mask, "index,member", 80),
    "choice": (lambda p: read_choice(p).freqs, lambda p: loop_read_choice(p).freqs, "index,freq", 90),
    "plane": (lambda p: read_grid2d(p).values, lambda p: loop_read_grid2d(p).values, "row,col,re,im", 100),
}


def _cell_rows(rng, kind, resolution):
    """The rows of a valid file of the kind at the resolution, in a random
    order."""
    n = 1 << resolution
    if kind == "plane":
        z = rng.standard_normal((n * n, 2))
        rows = [[str(i // n), str(i % n), repr(float(a)), repr(float(b))] for i, (a, b) in enumerate(z)]
    elif kind == "signal":
        rows = [[str(i), repr(float(a)), repr(float(b))] for i, (a, b) in enumerate(rng.standard_normal((n, 2)))]
    elif kind == "set":
        rows = [[str(i), str(int(m))] for i, m in enumerate(rng.random(n) < 0.5)]
    else:
        rows = [[str(i), str(int(f))] for i, f in enumerate(rng.integers(0, n, size=n))]
    return [rows[i] for i in rng.permutation(len(rows))]


def _mutate_cell_row(rng, rows):
    """Change one random row in place: drop or add a field, blank it, or set
    one field to a malformed, non-finite, out-of-range or repeated value, or
    to a value spelled another way (-0.0, a leading space or plus sign, an
    underscore)."""
    r = int(rng.integers(len(rows)))
    row, n = rows[r], len(rows)
    c = int(rng.integers(max(len(row), 1)))
    field = row[c] if row else "1"
    other = rows[int(rng.integers(n))]
    values = [
        "x", "", "1.5", "1e999", "nan", "inf", "-inf", "0.0", "-0.0", "-0", "2", "-1", str(n),
        str(1 << 70), str(-(1 << 70)), f" {field}", f"+{field}", f"{field[:1]}_{field[1:]}",
        other[c] if c < len(other) else "0",
    ]  # fmt: skip
    changes = [row[:-1], [*row, "0"], []] + [row[:c] + [v] + row[c + 1 :] for v in values]
    rows[r] = changes[int(rng.integers(len(changes)))]


def _bad_tile_row(rng, resolution, earlier):
    """One malformed or unfitting k,n,freq_offset row, or a repeat."""
    L = resolution
    k = int(rng.integers(max(L, 1)))
    span, freqs = 1 << k, 1 << max(L - k - 1, 0)
    n, q = int(rng.integers(span)), int(rng.integers(freqs))
    choices = [
        [str(L), "0", "0"], [str(L + 3), "0", "0"], ["-1", "0", "0"],
        [str(k), "-1", str(q)], [str(k), str(span), str(q)], [str(k), str(1 << 70), str(q)],
        [str(k), str(n), "-1"], [str(k), str(n), str(freqs)], [str(k), str(n), str(1 << 70)],
        [str(k), "x", str(q)], [str(k), str(n), "1.5"], ["", str(n), str(q)],
        [str(k), str(n)], [str(k), str(n), str(q), "5"], [],
        [f" {k}", f"+{n}", str(q)], ["-0", f"0_{n}", str(q)], [str(k), str(n), str(-(1 << 70))],
    ]  # fmt: skip
    if earlier:
        choices.append(list(earlier[int(rng.integers(len(earlier)))]))
    return choices[int(rng.integers(len(choices)))]


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

    @pytest.mark.parametrize(
        "rows, message",
        [(0, "row count 0 is not a power of two"), (8, "row count 8 is not a square power of two")],
    )
    def test_bad_grid2d_row_count_names_file(self, tmp_path, rows, message):
        path = tmp_path / "plane.csv"
        path.write_text("row,col,re,im\n" + "".join(f"0,{c},0,0\n" for c in range(rows)))
        with pytest.raises(ValueError, match=f"plane.csv: {message}"):
            read_grid2d(path)

    @pytest.mark.parametrize(
        "reader, header, row",
        [
            (read_signal, "index,re,im", "{},0,0"),
            (read_grid_set, "index,member", "{},1"),
            (read_choice, "index,freq", "{},0"),
        ],
    )
    def test_line_reader_rejects_resolution_above_maximum(self, tmp_path, reader, header, row):
        path = tmp_path / "big.csv"
        count = 1 << (MAX_RESOLUTION + 1)
        path.write_text(header + "\n" + "".join(row.format(i) + "\n" for i in range(count)))
        message = f"big.csv: row count {count} gives resolution {MAX_RESOLUTION + 1}, above the maximum"
        with pytest.raises(ValueError, match=message):
            reader(path)

    def test_plane_reader_rejects_resolution_above_maximum(self, tmp_path, monkeypatch):
        # a plane file above the real maximum has 4**13 rows, so the maximum
        # is lowered to 2 and the file has 4**3 rows
        monkeypatch.setattr(io_module, "MAX_RESOLUTION", 2)
        path = tmp_path / "plane.csv"
        write_grid2d(path, Grid2D(3, np.zeros((8, 8))))
        with pytest.raises(ValueError, match="plane.csv: row count 64 gives resolution 3, above the maximum 2"):
            read_grid2d(path)
        write_grid2d(path, Grid2D(2, np.ones((4, 4))))
        assert read_grid2d(path).resolution == 2

    @pytest.mark.parametrize("resolution", range(6))
    def test_tile_reader_equals_row_loop(self, tmp_path, resolution):
        rng = np.random.default_rng(50 + resolution)
        members = [[str(p.scale), str(p.offset), str(p.freq_index)] for p in all_bitiles(resolution)]
        for case in range(150):
            path = tmp_path / f"tiles{case}.csv"  # a new file: rewriting one can stall on writeback
            rows = [members[i] for i in rng.permutation(len(members)) if rng.random() < 0.6]
            for _ in range(int(rng.integers(4))):
                spot = int(rng.integers(len(rows) + 1))
                rows.insert(spot, _bad_tile_row(rng, resolution, rows[:spot]))
            path.write_text("k,n,freq_offset\n" + "".join(",".join(row) + "\n" for row in rows))
            expected = _outcome(lambda p: loop_read_tile_collection(p, resolution).occupied, path)
            assert _outcome(lambda p: read_tile_collection(p, resolution).occupied, path) == expected

    @pytest.mark.parametrize("kind", CELL_READERS)
    @pytest.mark.parametrize("resolution", range(6))
    def test_cell_reader_equals_row_loop(self, tmp_path, kind, resolution):
        read, loop_read, header, seed = CELL_READERS[kind]
        rng = np.random.default_rng(seed + resolution)
        for case in range(120):
            path = tmp_path / f"{kind}{case}.csv"  # a new file: rewriting one can stall on writeback
            rows = _cell_rows(rng, kind, resolution)
            for _ in range(int(rng.integers(4))):
                _mutate_cell_row(rng, rows)
            path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows))
            assert _outcome(read, path) == _outcome(loop_read, path)

    def test_signal_zero_signs_equal_row_loop(self, tmp_path):
        zeros = ["0.0", "-0.0", "1.5", "-1.5"]
        rows = [f"{i},{re},{im}\n" for i, (re, im) in enumerate((re, im) for re in zeros for im in zeros)]
        path = tmp_path / "signal.csv"
        path.write_text("index,re,im\n" + "".join(rows))
        read, loop_read, *_ = CELL_READERS["signal"]
        assert _outcome(read, path) == _outcome(loop_read, path)

    @pytest.mark.parametrize("resolution", range(9))
    def test_tile_writer_equals_sorted_writer(self, tmp_path, resolution):
        rng = np.random.default_rng(60 + resolution)
        shape = (resolution, (1 << resolution) >> 1)
        collections = [TileCollection(resolution, np.zeros(shape, dtype=bool)), TileCollection.all(resolution)]
        collections += [TileCollection(resolution, rng.random(shape) < d) for d in (0.05, 0.3, 0.8)]
        for case, collection in enumerate(collections):
            ours, oracle = tmp_path / f"ours{case}.csv", tmp_path / f"oracle{case}.csv"
            write_tile_collection(ours, collection)
            sorted_write_tile_collection(oracle, collection)
            assert ours.read_bytes() == oracle.read_bytes()
            assert read_tile_collection(ours, resolution).occupied.tobytes() == collection.occupied.tobytes()

    @pytest.mark.parametrize(
        "reader, text, bad_row",
        [
            (read_signal, "index,re,im\n0,1,0\n1,0,0,9\n", 2),
            (read_grid_set, "index,member\n0,1\n1,0,1\n", 2),
            (read_choice, "index,freq\n0,0\n1,1,0\n", 2),
            (read_grid2d, "row,col,re,im\n0,0,1,0,0\n", 1),
            (read_directions, "vx,vy\n1,0\n0,1,2\n", 2),
            (lambda path: read_tile_collection(path, 2), "k,n,freq_offset\n0,0,0\n1,0,0,5\n", 2),
        ],
        ids=["signal", "set", "choice", "plane", "directions", "tiles"],
    )
    def test_row_with_extra_field(self, tmp_path, reader, text, bad_row):
        path = tmp_path / "data.csv"
        path.write_text(text)
        header_fields = text.split("\n")[0].count(",") + 1
        message = f"row {bad_row}: .*expected {header_fields} fields, got {header_fields + 1}"
        with pytest.raises(ValueError, match=message):
            reader(path)

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

    @pytest.mark.parametrize(
        "lines, bad_row",
        [
            ("0,1.0,0.0\n1,nan,0.0\n", 2),
            ("0,inf,0.0\n1,1.0,0.0\n", 1),
            ("0,1.0,0.0\n1,0.0,-inf\n", 2),
        ],
        ids=["nan", "inf", "imaginary-inf"],
    )
    def test_nonfinite_signal_value(self, tmp_path, lines, bad_row):
        path = tmp_path / "signal.csv"
        path.write_text("index,re,im\n" + lines)
        with pytest.raises(ValueError, match=f"row {bad_row}: value .* is not finite"):
            read_signal(path)

    def test_nonfinite_grid2d_value(self, tmp_path):
        path = tmp_path / "plane.csv"
        path.write_text("row,col,re,im\n0,0,1.0,0.0\n0,1,1.0,0.0\n1,0,1.0,nan\n1,1,1.0,0.0\n")
        with pytest.raises(ValueError, match="row 3: value .* is not finite"):
            read_grid2d(path)

    @pytest.mark.parametrize(
        "lines, bad_row, message",
        [
            ("1.0,0.0\nnan,0.0\n", 2, "finite"),
            ("1.0,0.0\n0.0,inf\n", 2, "finite"),
            ("1.0,0.0\n0.0,1.0\n1.0,0.0\n", 3, "repeated"),
        ],
        ids=["nan", "inf", "repeated"],
    )
    def test_bad_direction_row(self, tmp_path, lines, bad_row, message):
        path = tmp_path / "dirs.csv"
        path.write_text("vx,vy\n" + lines)
        with pytest.raises(ValueError, match=f"row {bad_row}: .*{message}"):
            read_directions(path)


class TestOpenNew:
    def test_replaces_a_regular_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents, longer than the new\n")
        before = path.stat().st_ino
        held = open(path)  # keeps the old inode alive, so its number is not reused
        with open_new(path, newline="") as fh:
            fh.write("new\r\n")
        held.close()
        assert path.read_bytes() == b"new\r\n"
        assert path.stat().st_ino != before

    def test_writes_through_links(self, tmp_path):
        target, link, twin = tmp_path / "target.txt", tmp_path / "link.txt", tmp_path / "twin.txt"
        target.write_text("old\n")
        link.symlink_to(target)
        twin.hardlink_to(target)
        with open_new(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert target.read_text() == twin.read_text() == "new\n"
        with open_new(twin) as fh:
            fh.write("newer\n")
        assert target.read_text() == "newer\n"


def _never_runs(*args, **kwargs):
    raise AssertionError("the experiment ran")


class TestCLI:
    def test_only_estimate22_takes_plot(self):
        assert build_parser().parse_args(["estimate-22", "--plot"]).plot
        for flag in (["--plot"], ["--s", "2"], ["--t", "3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["verify", "fs", *flag])

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        # main builds its parser once per process; parsing never changes it,
        # so no flag or default of one call reaches the next
        from dyadlab import cli

        assert cli._parser() is cli._parser()
        argvs = [
            ["decompose", "col.csv", "sig.csv", "--resolution", "3", "--set-file", "set.csv"],
            ["verify", "fs", "--seed", "4", "--out", "fs"],
            ["estimate-22", "--resolution", "3", "--ladder", "2"],
        ]
        parsed = [vars(cli._parser().parse_args(argv)) for argv in argvs]
        assert parsed == [vars(build_parser().parse_args(argv)) for argv in argvs]
        assert "set_file" not in parsed[1] and "theorem" not in parsed[2]
        assert parsed[2]["out"] is None and parsed[2]["seed"] == 0
        # the same three commands through main, in a row, then a bad flag
        col, sig = tmp_path / "col.csv", tmp_path / "sig.csv"
        write_tile_collection(col, TileCollection.all(3))
        write_signal(sig, random_signal(np.random.default_rng(6), 3))
        assert main(["decompose", str(col), str(sig), "--resolution", "3", "--out", str(tmp_path / "dec.csv")]) == 0
        assert main(["verify", "fs", "--resolution", "3", "--trials", "1", "--out", str(tmp_path / "fs")]) == 0
        assert main(["estimate-22", "--resolution", "3", "--ladder", "2", "--branch", "h"]) in (0, 1)
        with pytest.raises(SystemExit) as raised:
            main(["verify", "fs", "--s", "2"])
        assert raised.value.code == 2
        assert vars(cli._parser().parse_args(["verify", "fs"])) == vars(build_parser().parse_args(["verify", "fs"]))

    def test_cli_import_leaves_out_the_principle_module(self):
        # decompose never calls the norm engine, so importing the CLI must
        # not import (and, without bytecode caches, compile) its module
        import dyadlab

        paths = [str(Path(dyadlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        code = "import sys, dyadlab.cli; sys.exit('dyadlab.principle' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

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

    @pytest.mark.parametrize("q", ["0", "nan"])
    def test_cordoba_q_outside_the_window_exits_two(self, q, capsys):
        # q = 0 would divide by zero in 2/q, and NaN fails every comparison
        assert main(["verify", "cordoba", "--resolution", "3", "--trials", "1", "--q", q]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ")
        assert f"cordoba needs |1 - 2/q| < 1/p, got q={float(q)}, p=2.0" in err

    def test_cordoba_weighted_ignores_q(self, tmp_path, capsys):
        # the runner works at q = 2p/(p-1) and reads no --q, so no default q
        # may reject p = 10, and the manifest records none
        out = tmp_path / "cw"
        args = ["verify", "cordoba-weighted", "--p", "10", "--trials", "1", "--resolution", "3"]
        assert main([*args, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["q"] == 2.0 * 10.0 / 9.0
        assert json.loads((out / "manifest.json").read_text())["config"]["q"] is None
        assert main(["verify", "cordoba-weighted", "--p", "1.0"]) == 2
        assert "cordoba-weighted needs 1 < p < inf, got p=1.0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_principle_near_one_exits_zero(self, capsys):
        # a level budget worked out through 6**max(p0, p0') overflowed a
        # float at p0 = 1.002; the budget is 2**-k at every p0
        code = main(["verify", "principle", "--p", "1.002", "--resolution", "6", "--trials", "2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [level["budget"] for level in report["principle"]["levels"]] == [2.0**-k for k in range(1, 11)]

    @pytest.mark.parametrize("theorem", ["biparam", "principle"])
    def test_resolution_zero_exits_two(self, theorem, capsys):
        assert main(["verify", theorem, "--resolution", "0"]) == 2
        assert f"{theorem} needs resolution 1 <= L <= 12, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--resolution", "13"], "resolution must satisfy 0 <= L <= 12, got 13"),
            (["--ladder", "0"], "at least 2 ratios to fit a slope, got 0"),
            (["--ladder", "1"], "at least 2 ratios to fit a slope, got 1"),
            (["--resolution", "-1"], "resolution must satisfy 0 <= L <= 12, got -1"),
            (["--ladder", "-1"], "at least 2 ratios to fit a slope, got -1"),
            # the small set at ratio 2^-ladder must hold at least one cell
            (["--resolution", "0"], "got 2, and at most the resolution 0"),
            (["--resolution", "4", "--ladder", "5"], "got 5, and at most the resolution 4"),
            (["--seed", "-1"], "seed must be nonnegative, got -1"),
            # a nan gate fails every slope and an infinite one passes every slope
            (["--epsilon", "nan"], "epsilon must satisfy 0 <= epsilon < 1/2, got nan"),
            (["--epsilon", "inf"], "epsilon must satisfy 0 <= epsilon < 1/2, got inf"),
            (["--epsilon", "-1"], "epsilon must satisfy 0 <= epsilon < 1/2, got -1.0"),
            (["--epsilon", "0.5"], "epsilon must satisfy 0 <= epsilon < 1/2, got 0.5"),
        ],
    )
    def test_estimate22_invalid_flags_exit_two(self, flags, message, tmp_path, capsys):
        out = tmp_path / "est"
        assert main(["estimate-22", "--resolution", "3", "--ladder", "2", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: ")
        assert message in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("resolution", [2, 4])
    def test_estimate22_ladder_defaults_to_resolution(self, resolution, capsys):
        assert main(["estimate-22", "--resolution", str(resolution), "--branch", "h"]) in (0, 1)
        ladder = json.loads(capsys.readouterr().out)["h"]["ratio_ladder"]
        assert [pt["log_ratio"] for pt in ladder] == [-float(i) for i in range(1, resolution + 1)]

    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", "0"], ["--epsilon", "0.1"], ["--epsilon", "0.49"]])
    def test_estimate22_accepts_epsilon_in_range(self, epsilon, capsys):
        assert main(["estimate-22", "--resolution", "3", "--ladder", "2", "--branch", "h", *epsilon]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["h"]["ratio_ladder"]

    @pytest.mark.parametrize("theorem", ["fs", "principle"])
    def test_negative_seed_exits_two(self, theorem, capsys):
        # numpy's SeedSequence would raise on it only once the run starts
        assert main(["verify", theorem, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "invalid configuration: seed must be nonnegative, got -1\n"

    def test_estimate22_smallest_valid_ladder(self, capsys):
        assert main(["estimate-22", "--resolution", "3", "--ladder", "2", "--branch", "h"]) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        assert len(report["h"]["ratio_ladder"]) == 2

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

    @pytest.mark.parametrize("refused", ["collection", "out"])
    def test_decompose_refused_path_exits_two(self, refused, tmp_path, monkeypatch, capsys):
        # a missing input file and an --out naming a directory print the
        # operating system's message, as malformed input prints its row;
        # no decomposition runs, and a refused --out reads no input
        from dyadlab import harness

        col, sig, out = tmp_path / "col.csv", tmp_path / "sig.csv", tmp_path / "forest.csv"
        write_tile_collection(col, TileCollection.all(3))
        write_signal(sig, GridSignal.constant(3, 1.0))
        monkeypatch.setattr(harness, "full_decompose", _never_runs)
        if refused == "collection":
            col = tmp_path / "missing.csv"
        else:
            out.mkdir()
            monkeypatch.setattr(harness, "read_tile_collection", _never_runs)
        assert main(["decompose", str(col), str(sig), "--resolution", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        path = col if refused == "collection" else out
        assert captured.err.startswith("error: [Errno ") and captured.err.endswith(f": '{path}'\n")
        assert captured.out == ""

    @pytest.mark.parametrize("parent", ["missing", "plain"])
    def test_decompose_out_parent_refused_before_the_inputs(self, parent, tmp_path, monkeypatch, capsys):
        # an --out whose parent is missing or a regular file names the error
        # opening it would raise, before any input file is read
        from dyadlab import harness

        (tmp_path / "plain").write_text("")
        out = tmp_path / parent / "forest.csv"
        monkeypatch.setattr(harness, "read_tile_collection", _never_runs)
        argv = ["decompose", str(tmp_path / "col.csv"), str(tmp_path / "sig.csv"), "--resolution", "3"]
        assert main([*argv, "--out", str(out)]) == 2
        with pytest.raises(OSError) as opened:
            open(out, "w")
        assert capsys.readouterr().err == f"error: {opened.value}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["plain"]

    def test_verify_out_under_a_file_exits_two_before_the_run(self, tmp_path, monkeypatch, capsys):
        from dyadlab import harness

        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "out"
        monkeypatch.setitem(harness.THEOREMS, "fs", harness.THEOREMS["fs"]._replace(run=_never_runs))
        assert main(["verify", "fs", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ") and captured.err.endswith(f": '{out}'\n")
        assert captured.out == ""

    def test_estimate22_out_under_a_file_exits_two_before_the_run(self, tmp_path, monkeypatch, capsys):
        from dyadlab import carleson

        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "out"
        monkeypatch.setattr(carleson, "norm_decay_ladder", _never_runs)
        assert main(["estimate-22", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ") and captured.err.endswith(f": '{out}'\n")
        assert captured.out == ""

    def test_decompose_signal_above_maximum_resolution_exits_two(self, tmp_path, capsys):
        col, sig = tmp_path / "col.csv", tmp_path / "sig.csv"
        write_tile_collection(col, TileCollection.from_bitiles(4, []))
        count = 1 << (MAX_RESOLUTION + 1)
        sig.write_text("index,re,im\n" + "".join(f"{i},0,0\n" for i in range(count)))
        code = main(["decompose", str(col), str(sig), "--resolution", "4", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"sig.csv: row count {count} gives resolution {MAX_RESOLUTION + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("tiles", [[], ["0,0,0"]], ids=["header-only", "one-tile"])
    def test_decompose_signal_at_other_resolution_exits_two(self, tmp_path, capsys, tiles):
        col, sig = tmp_path / "col.csv", tmp_path / "sig.csv"
        col.write_text("\n".join(["k,n,freq_offset", *tiles]) + "\n")
        write_signal(sig, GridSignal.constant(2, 1.0))
        out = tmp_path / "o.csv"
        assert main(["decompose", str(col), str(sig), "--resolution", "3", "--out", str(out)]) == 2
        assert f"error: resolution mismatch: decomposition at L=3, {sig} at L=2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, write",
        [
            ("--set-file", lambda path: write_grid_set(path, GridSet.full(4))),
            ("--choice-file", lambda path: write_choice(path, ChoiceFunction.constant(4, 1))),
        ],
    )
    def test_decompose_mass_file_at_other_resolution_exits_two(self, tmp_path, capsys, flag, write):
        # tiles and signal at L=3, the set or choice file at L=4
        col, sig, other = tmp_path / "col.csv", tmp_path / "sig.csv", tmp_path / "other.csv"
        write_tile_collection(col, random_convex_collection(np.random.default_rng(7), 3))
        write_signal(sig, GridSignal.constant(3, 1.0))
        write(other)
        argv = ["decompose", str(col), str(sig), "--resolution", "3", flag, str(other)]
        assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 2
        assert "error: resolution mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "resolution, tiles, forest",
        [
            (0, [], []),
            (1, [], []),
            (1, ["0,0,0"], ["0,0,0,0,0,1,1,1.0"]),
        ],
    )
    def test_decompose_edge_inputs(self, tmp_path, capsys, resolution, tiles, forest):
        col = tmp_path / "col.csv"
        col.write_text("\n".join(["k,n,freq_offset", *tiles]) + "\n")
        sig = tmp_path / "sig.csv"
        write_signal(sig, GridSignal.constant(resolution, 1.0))
        out = tmp_path / "dec.csv"
        code = main(["decompose", str(col), str(sig), "--resolution", str(resolution), "--out", str(out)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["trees"] == len(forest)
        header = "n,m,tree,top_scale,top_offset,top_freq,members,count_ratio"
        assert out.read_text().splitlines() == [header, *forest]

    @pytest.mark.parametrize("flag", ["--trials", "--p", "--q", "--p1", "--family-size"])
    def test_estimate22_rejects_verify_flags(self, flag, tmp_path, capsys):
        # the ladder reads none of them; they set the Thm 7.1 run, which is
        # verify carleson's
        out = tmp_path / "est"
        with pytest.raises(SystemExit) as raised:
            main(["estimate-22", "--resolution", "3", "--ladder", "2", flag, "3", "--out", str(out)])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} 3" in captured.err
        assert captured.out == "" and not out.exists()

    def test_estimate22_reports_the_ladder_per_branch(self, capsys):
        code = main(["estimate-22", "--resolution", "4", "--ladder", "2", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert set(report) == {"h", "g"}
        for name, branch in report.items():
            assert set(branch) == {"branch", "intercept", "ratio_ladder", "resolution", "slope", "unconverged"}
            assert branch["branch"] == name and len(branch["ratio_ladder"]) == 2

    # the flags besides --p that each theorem reads
    READS = {
        "fs": (),
        "biparam": ("--epsilon",),
        "cordoba": ("--q",),
        "cordoba-weighted": (),
        "carleson": (),
        "principle": ("--q", "--p1"),
    }

    @pytest.mark.parametrize("theorem", THEOREMS)
    @pytest.mark.parametrize("flag, value", [("--q", "2.2"), ("--p1", "3"), ("--epsilon", "0.45")])
    def test_verify_takes_only_the_flags_it_reads(self, theorem, flag, value, tmp_path, capsys):
        """A flag the theorem reads runs and is recorded; one it does not
        read exits 2, names the flag and writes nothing. The manifest
        records None for every parameter the theorem does not read."""
        out = tmp_path / "out"
        argv = ["verify", theorem, "--resolution", "3", "--trials", "1", flag, value, "--out", str(out)]
        names = {"--q": "q", "--p1": "p1", "--epsilon": "eps"}
        if flag not in self.READS[theorem]:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"invalid configuration: {theorem} reads no {flag}\n"
            assert captured.out == "" and not out.exists()
            return
        assert main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config[names[flag]] == float(value)
        unread = [name for other, name in names.items() if other not in self.READS[theorem]]
        assert unread and all(config[name] is None for name in unread)

    def test_estimate22_fails_on_unconverged_runs(self, monkeypatch, capsys):
        # the golden configuration exits 0; on the Krylov engine (which
        # runs above carleson.DENSE_RESOLUTION) capped at two Lanczos steps
        # its norm runs stop unconverged, the report counts them and the
        # exit status is 1
        import functools

        import dyadlab.carleson as carleson

        monkeypatch.setattr(carleson, "DENSE_RESOLUTION", -1)

        argv = ["estimate-22", "--resolution", "5", "--ladder", "3", "--seed", "3"]
        assert main(argv) == 0
        assert all(branch["unconverged"] == 0 for branch in json.loads(capsys.readouterr().out).values())
        monkeypatch.setattr(carleson, "norm_decay_point", functools.partial(carleson.norm_decay_point, iters=2))
        assert main(argv) == 1
        assert all(branch["unconverged"] > 0 for branch in json.loads(capsys.readouterr().out).values())

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
