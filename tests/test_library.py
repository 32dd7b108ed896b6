import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from quantlink import library, modem
from quantlink.allocator import InfeasibleTargetError, LatentStats, minimum_bit_allocation, optimize_plan
from quantlink.channel import exponential_pdp, realize_channel
from quantlink.library import (
    LibraryFormatError,
    QuantizerLibrary,
    build_library,
    default_epsilon_grid,
    gamma_increments_convex,
    load_library,
    save_library,
    serialize_library,
    sigma_max,
)
from quantlink.modem import QAM_BITS, snr_threshold
from quantlink.quantizer import MAX_BIT_DEPTH, DesignConfig, analytic_distortion, uniform_bsc
from quantlink.rng import stream_rng

ONE_BIT_D_05 = 0.48433798438225906
# sha256 of serialize_library(build_library()); a deliberate change to the
# default library bytes updates this constant and says why in CHANGES.md
DEFAULT_LIBRARY_SHA256 = "66975a80a1efbb8a2921df16ee29d1ffc7fa7b3477336ac274c5f8ece844513a"
# the committed default library that the benchmark loads
FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "default_library.json"


def test_default_grid_shape():
    grid = default_epsilon_grid()
    assert grid.size == 10
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(5e-2)
    # log-uniform: constant ratio between consecutive targets
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])


def test_single_cell_library():
    lib = build_library(1, [0.05], DesignConfig(restarts=4, seed=7))
    assert lib.distortion_column(0)[0] == pytest.approx(ONE_BIT_D_05, abs=1e-9)
    assert sigma_max(lib) == pytest.approx(np.sqrt(1 / ONE_BIT_D_05 - 1), abs=1e-6)


def test_column_monotone_and_in_unit_interval(small_lib):
    for qi in range(small_lib.epsilons.size):
        col = small_lib.distortion_column(qi)
        assert np.all(np.diff(col) <= 1e-12)
        assert np.all(col > 0) and np.all(col <= 1)


def test_row_monotone_in_target(small_lib):
    for b in range(1, small_lib.b_max + 1):
        row = [small_lib.distortion_column(qi)[b - 1] for qi in range(small_lib.epsilons.size)]
        assert np.all(np.diff(row) >= -1e-9)


def _depths(lib, eps_index, variances):
    """The planner's minimum depths, which raise InfeasibleTargetError where no depth serves."""
    stats = LatentStats(np.zeros(len(variances)), np.asarray(variances, dtype=float))
    return minimum_bit_allocation(lib, stats, eps_index, 0.4)[0]


def test_sigma_max_feasibility_sweep(small_lib):
    rng = stream_rng("feas", 1)
    smax2 = sigma_max(small_lib) ** 2
    v = rng.uniform(0.0, smax2, size=10_000)
    for qi in range(small_lib.epsilons.size):
        bits = _depths(small_lib, qi, v)  # raises if infeasible
        assert np.all(bits <= small_lib.b_max)


def test_sigma_max_takes_worst_column(small_lib):
    worst = small_lib.distortion_column(small_lib.epsilons.size - 1)[small_lib.b_max - 1] * 1.1
    # raise the last two depths of column 0 together, so the column stays
    # nonincreasing and its best reachable distortion is `worst`
    cells = dict(small_lib.cells)
    for b in (small_lib.b_max - 1, small_lib.b_max):
        cells[(b, 0)] = dataclasses.replace(small_lib.quantizer(b, 0), normalized_distortion=worst)
    lib = dataclasses.replace(small_lib, cells=cells)
    assert sigma_max(lib) == np.sqrt(1.0 / worst - 1.0)
    assert sigma_max(lib) < sigma_max(small_lib)
    smax2 = sigma_max(lib) ** 2
    for qi in range(lib.epsilons.size):
        _depths(lib, qi, [smax2 * 0.999])  # raises if infeasible


def test_sigma_max_reads_best_reachable_distortion(small_lib):
    # the last column rises at b_max above every other column's best depth;
    # its best reachable distortion is D(b_max - 1), not D(b_max)
    last = small_lib.epsilons.size - 1
    cells = dict(small_lib.cells)
    cells[(small_lib.b_max, last)] = dataclasses.replace(
        small_lib.quantizer(small_lib.b_max, last), normalized_distortion=0.35
    )
    lib = dataclasses.replace(small_lib, cells=cells)
    best = small_lib.distortion_column(last)[small_lib.b_max - 2]
    assert best < 0.35 and lib.distortion_table().min(axis=1).max() == best
    assert sigma_max(lib) == np.sqrt(1.0 / best - 1.0)
    assert np.sqrt(1.0 / 0.35 - 1.0) < sigma_max(lib)  # the value D(b_max) gave
    smax2 = sigma_max(lib) ** 2
    for qi in range(lib.epsilons.size):
        _depths(lib, qi, [smax2])  # raises if infeasible
    stats = LatentStats(np.zeros(2), np.array([smax2, 1.0]))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=1)
    assert optimize_plan(lib, stats, ch, 8 * 1e3).b_lat > 0


@pytest.mark.parametrize("which", ["default", "small", "one-bit"])
def test_sigma_max_is_the_largest_feasible_sigma(which, request):
    lib = {
        "default": lambda: request.getfixturevalue("default_lib"),
        "small": lambda: request.getfixturevalue("small_lib"),
        # sqrt(1/D - 1) is one ulp too large here: its square is infeasible
        "one-bit": lambda: build_library(1, [0.05], DesignConfig(restarts=4, seed=7)),
    }[which]()
    smax = sigma_max(lib)
    for square in (smax**2, smax * smax):
        for qi in range(lib.epsilons.size):
            _depths(lib, qi, [square])  # raises if infeasible
    worst = int(np.argmax(lib.distortion_table().min(axis=1)))
    above = float(np.nextafter(smax, np.inf))
    with pytest.raises(InfeasibleTargetError):
        _depths(lib, worst, [above**2, above * above])
    if which == "default":
        assert smax == 4.741190556636805  # the value every pinned sweep drew from
    if which == "one-bit":
        best = lib.distortion_table().min()
        with pytest.raises(InfeasibleTargetError):
            _depths(lib, 0, [np.sqrt(1.0 / best - 1.0) ** 2])


def test_sigma_max_algebra():
    # sqrt(1/D - 1) identities on synthetic values
    assert np.isclose(np.sqrt(1 / 0.5 - 1), 1.0)
    assert np.isclose(np.sqrt(1 / 0.01 - 1), np.sqrt(99))


def test_library_arrays_are_read_only_copies(small_lib):
    # an edit in place would leave step_table() and the kept digest stale
    with pytest.raises(ValueError, match="read-only"):
        small_lib.gamma_thresholds[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        small_lib.epsilons[0] = 0.02
    for q in small_lib.cells.values():
        for arr in (q.thresholds, q.levels, q.region_codewords, q.designed_for):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
    epsilons, gamma = small_lib.epsilons.copy(), small_lib.gamma_thresholds.copy()
    derived = dataclasses.replace(small_lib, epsilons=epsilons, gamma_thresholds=gamma)
    assert epsilons.flags.writeable and gamma.flags.writeable  # the caller's arrays stay its own
    assert derived.gamma_thresholds is not gamma and derived.digest() == small_lib.digest()


def test_library_is_frozen_and_replace_rebuilds_its_tables(small_lib):
    # a reassigned field would leave step_table(), the audit and the kept digest stale
    digest = small_lib.digest()
    for f in dataclasses.fields(small_lib):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(small_lib, f.name, getattr(small_lib, f.name))
    assert small_lib.digest() == digest
    # nor can a cell be swapped in place under the distortion table
    with pytest.raises(TypeError):
        small_lib.cells[(1, 0)] = small_lib.cells[(1, 1)]
    # one target and two depths of the grid: replace checks them and builds their own tables
    cells = {(b, 0): small_lib.cells[(b, 0)] for b in (1, 2)}
    epsilons, gamma = small_lib.epsilons[:1], small_lib.gamma_thresholds[:, :1]
    derived = dataclasses.replace(small_lib, b_max=2, epsilons=epsilons, cells=cells, gamma_thresholds=gamma)
    # the library keeps its own copy of the cells: the caller's dict stays the caller's
    column, derived_digest = derived.distortion_column(0).copy(), derived.digest()
    other = dataclasses.replace(cells[(1, 0)], normalized_distortion=small_lib.cells[(1, 1)].normalized_distortion)
    cells[(1, 0)] = other
    assert derived.cells[(1, 0)] is small_lib.cells[(1, 0)]
    assert np.array_equal(derived.distortion_column(0), column) and derived.digest() == derived_digest
    swapped = dataclasses.replace(derived, cells=cells)
    assert swapped.distortion_column(0)[0] == other.normalized_distortion != column[0]
    assert np.array_equal(derived.step_table()[0], small_lib.step_table()[0][:1])
    assert np.array_equal(derived.step_table()[1], small_lib.step_table()[1][:1])
    assert np.array_equal(derived.distortion_table(), small_lib.distortion_table()[:1, :2])
    assert derived.warnings == library._audit(derived.distortion_table())
    assert derived.digest() != digest and small_lib.digest() == digest
    with pytest.raises(ValueError, match="not the grid"):
        dataclasses.replace(small_lib, epsilons=epsilons, gamma_thresholds=gamma)


def test_save_load_round_trip(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    again = load_library(path)
    assert serialize_library(again) == serialize_library(small_lib)
    assert again.digest() == small_lib.digest()
    for key, cell in small_lib.cells.items():
        other = again.cells[key]
        assert np.array_equal(cell.thresholds, other.thresholds)
        assert np.array_equal(cell.levels, other.levels)
        assert np.array_equal(cell.region_codewords, other.region_codewords)
        assert cell.normalized_distortion == other.normalized_distortion


def test_load_rejects_truncated_file(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(LibraryFormatError):
        load_library(path)


@pytest.mark.parametrize("path", [0, 7, True, None, b"lib.json"])
def test_load_rejects_a_path_that_is_not_a_string_or_path(path):
    # open() takes an int as a file descriptor, so 0 would read stdin
    with pytest.raises(LibraryFormatError, match="library path"):
        load_library(path)


def test_load_takes_a_string_path(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    assert load_library(str(path)).digest() == small_lib.digest()


def test_load_rejects_version_mismatch(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(LibraryFormatError, match="format_version"):
        load_library(path)


def test_load_rejects_tampered_distortion(tmp_path, small_lib):
    # a NaN passes a plain `> tol` check, and the planner's running minimum
    # down the column would spread it to every deeper cell
    for bad in (0.123456, np.nan, np.inf, -np.inf):
        def tamper(doc):
            cell = next(c for c in doc["cells"] if (c["b"], c["eps_index"]) == (2, 1))
            cell["distortion"] = float(bad).hex()

        with pytest.raises(LibraryFormatError, match="stored distortion"):
            load_library(_tampered(tmp_path, small_lib, tamper))


def test_load_rejects_flips_off_grid(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    doc = json.loads(path.read_text())
    cell = next(c for c in doc["cells"] if c["eps_index"] == 0)
    cell["flips"] = [small_lib.epsilons[1].hex()] * cell["b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(LibraryFormatError, match="flips"):
        load_library(path)


def test_load_rejects_bad_epsilon_grid(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    doc = json.loads(path.read_text())
    doc["epsilons"] = doc["epsilons"][::-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(LibraryFormatError, match="strictly increasing"):
        load_library(path)


def test_load_rejects_non_integer_design_counts(tmp_path, small_lib):
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    for key, bad in (("restarts", 10.0), ("restarts", True), ("max_iters", 200.0), ("seed", 1.5)):
        doc = json.loads(path.read_text())
        doc["design"][key] = bad
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        with pytest.raises(LibraryFormatError, match=f"{key} must be an int"):
            load_library(bad_path)


def _tampered(tmp_path, lib, edit):
    path = tmp_path / "lib.json"
    save_library(lib, path)
    doc = json.loads(path.read_text())
    edit(doc)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    return bad_path


@pytest.mark.parametrize("field", ["thresholds", "levels", "flips"])
@pytest.mark.parametrize("bad", ["one", "0x1p", "", "0x1p+1024", 0.5, 1, None, ["0x1p-1"]])
def test_load_refuses_a_cell_entry_that_is_not_a_hex_string(tmp_path, small_lib, field, bad):
    # each entry goes through float.fromhex: a bare number, a non-hex string,
    # a hex value too large for a float (an OverflowError that used to escape
    # as a traceback) or a nested list is refused, never converted
    def tamper(doc):
        cell = next(c for c in doc["cells"] if (c["b"], c["eps_index"]) == (2, 1))
        cell[field][0] = bad

    with pytest.raises(LibraryFormatError, match="malformed library file"):
        load_library(_tampered(tmp_path, small_lib, tamper))


@pytest.mark.parametrize("field", ["thresholds", "levels", "flips"])
@pytest.mark.parametrize("bad", [0.5, 3, None, True])
def test_load_refuses_a_cell_field_that_is_not_a_list(tmp_path, small_lib, field, bad):
    def tamper(doc):
        cell = next(c for c in doc["cells"] if (c["b"], c["eps_index"]) == (2, 1))
        cell[field] = bad

    with pytest.raises(LibraryFormatError, match="malformed library file"):
        load_library(_tampered(tmp_path, small_lib, tamper))


def test_load_rejects_repeated_cell(tmp_path, small_lib):
    # a second record for one cell used to overwrite the first unnoticed
    def repeat(doc):
        doc["cells"].append(copy.deepcopy(doc["cells"][0]))

    with pytest.raises(LibraryFormatError, match="appears twice"):
        load_library(_tampered(tmp_path, small_lib, repeat))


def test_load_rejects_empty_grid(tmp_path, small_lib):
    def empty(doc):
        doc["b_max"] = 0
        doc["cells"] = []

    with pytest.raises(LibraryFormatError, match="b_max"):
        load_library(_tampered(tmp_path, small_lib, empty))


@pytest.mark.parametrize("b_max", [0, MAX_BIT_DEPTH + 1])
def test_build_library_rejects_b_max_before_designing(monkeypatch, b_max):
    # b_max = 13 used to design every cell up to b = 12 before the b = 13 design raised
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was designed before b_max was checked")

    monkeypatch.setattr(library, "design_channel_optimized", refuse)
    with pytest.raises(ValueError, match=f"b_max must be in \\[1, {MAX_BIT_DEPTH}\\], got {b_max}"):
        build_library(b_max, [0.01])


def test_load_rejects_b_max_above_the_deepest_quantizer(tmp_path, small_lib):
    def deep(doc):
        doc["b_max"] = MAX_BIT_DEPTH + 1

    with pytest.raises(LibraryFormatError, match=f"b_max must be an int in \\[1, {MAX_BIT_DEPTH}\\]"):
        load_library(_tampered(tmp_path, small_lib, deep))


def test_load_rejects_gamma_off_target(tmp_path, small_lib):
    # 16-QAM at the first target, moved by one part in 10^4
    def nudge(doc):
        row = doc["gamma_thresholds"][1]
        row[0] = (float.fromhex(row[0]) * (1.0 + 1e-4)).hex()

    with pytest.raises(LibraryFormatError, match="4-bit QAM miss"):
        load_library(_tampered(tmp_path, small_lib, nudge))


def test_load_rejects_bad_rel_tol(tmp_path, small_lib):
    for bad in ("inf", "nan", "-0x1.0p-30"):
        def set_rel_tol(doc):
            doc["design"]["rel_tol"] = bad

        with pytest.raises(LibraryFormatError, match="rel_tol"):
            load_library(_tampered(tmp_path, small_lib, set_rel_tol))


def test_default_library_bytes_are_pinned(default_lib):
    digest = hashlib.sha256(serialize_library(default_lib).encode("utf-8")).hexdigest()
    assert digest == DEFAULT_LIBRARY_SHA256


def test_fixture_library_round_trips_byte_for_byte():
    assert serialize_library(load_library(FIXTURE)) == FIXTURE.read_text(encoding="utf-8")


def _tampered_fixture(tmp_path, edit):
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "swap", [lambda c: c + 0.9, float, bool, str], ids=["plus 0.9", "float", "bool", "str"]
)
def test_load_refuses_a_codeword_that_is_not_an_int(tmp_path, swap):
    # np.int64 used to truncate 1.9 to 1 and read false as 0, so such a
    # cell loaded as the untampered one
    def tamper(doc):
        cell = next(c for c in doc["cells"] if (c["b"], c["eps_index"]) == (3, 4))
        assert cell["region_codewords"][:2] == [0, 1]
        cell["region_codewords"][:2] = [swap(0), swap(1)]

    with pytest.raises(LibraryFormatError, match=r"cell \(3,4\): region_codewords must hold only ints"):
        load_library(_tampered_fixture(tmp_path, tamper))


@pytest.mark.parametrize("bad", ["abc", {"kind": "column-not-monotone"}, [1], ["row-not-monotone"], None])
def test_load_refuses_warnings_that_are_not_a_list_of_objects(tmp_path, bad):
    # list("abc") used to load as three warnings, and the library
    # re-serialized to other bytes than the file it came from
    def tamper(doc):
        doc["warnings"] = bad

    with pytest.raises(LibraryFormatError, match="warnings must be a list of JSON objects"):
        load_library(_tampered_fixture(tmp_path, tamper))


def test_digest_is_computed_once_per_object(small_lib, monkeypatch):
    import quantlink.library as library_module

    calls = []
    real = library_module.serialize_library

    def counting(lib):
        calls.append(lib)
        return real(lib)

    monkeypatch.setattr(library_module, "serialize_library", counting)
    lib = dataclasses.replace(small_lib)
    want = hashlib.sha256(real(lib).encode("utf-8")).hexdigest()
    assert lib.digest() == want
    assert lib.digest() == want
    assert len(calls) == 1

    # a derived library starts without the cached digest
    cells = dict(lib.cells)
    cells[(1, 0)] = dataclasses.replace(cells[(1, 0)], normalized_distortion=cells[(1, 1)].normalized_distortion)
    swapped = dataclasses.replace(lib, cells=cells)
    assert swapped.digest() == hashlib.sha256(real(swapped).encode("utf-8")).hexdigest()
    assert swapped.digest() != want
    assert len(calls) == 2


def test_rebuild_is_byte_identical(small_lib):
    again = build_library(3, [0.01, 0.05], DesignConfig(restarts=4, seed=7))
    assert serialize_library(again) == serialize_library(small_lib)


def test_same_target_same_column():
    a = build_library(2, [0.02], DesignConfig(restarts=3, seed=5))
    b = build_library(2, [0.02], DesignConfig(restarts=3, seed=5))
    assert serialize_library(a) == serialize_library(b)


def test_gamma_table_round_trips(tmp_path, small_lib):
    from quantlink.modem import QAM_BITS, ber_approx

    for mi, m in enumerate(QAM_BITS):
        for qi, eps in enumerate(small_lib.epsilons):
            g = small_lib.gamma_thresholds[mi, qi]
            assert abs(ber_approx(m, g) - eps) <= 1e-10


def test_convexity_report(small_lib):
    kinds = {w["kind"] for w in small_lib.warnings}
    assert "column-not-monotone" not in kinds


def _with_distortions(lib, table):
    """lib with cell (b, q) holding distortion table[q][b - 1], and that table's warnings."""
    cells = {
        (b, qi): dataclasses.replace(lib.quantizer(b, qi), normalized_distortion=d)
        for qi, row in enumerate(table)
        for b, d in enumerate(row, start=1)
    }
    return dataclasses.replace(lib, cells=cells)


def test_audit_records_each_anomaly_in_order(small_lib):
    # column 0 rises from b = 2 to b = 3, column 1 has second difference
    # -0.25, and at b = 3 the target with more flips has the lower distortion
    lib = _with_distortions(small_lib, [[0.5, 0.25, 0.375], [0.75, 0.625, 0.25]])
    assert lib.warnings == [
        {"kind": "column-not-monotone", "eps_index": 0, "first_rise_b": 2},
        {"kind": "column-not-convex", "eps_index": 1, "min_second_difference": -0.25},
        {"kind": "row-not-monotone", "b": 3},
    ]


def test_a_derived_library_audits_its_own_table(small_lib):
    # column 0 rises from b = 2 to b = 3: the derived library records it, and
    # the library it came from keeps its own list
    before = list(small_lib.warnings)
    lib = _with_distortions(small_lib, [[0.5, 0.25, 0.375], small_lib.distortion_column(1).tolist()])
    assert {"kind": "column-not-monotone", "eps_index": 0, "first_rise_b": 2} in lib.warnings
    assert lib.warnings == library._audit(lib.distortion_table()) != before
    assert lib.warnings is not small_lib.warnings and small_lib.warnings == before


@pytest.mark.parametrize("wrong", [[{"kind": "row-not-monotone", "b": 3}], [{}]])
def test_load_refuses_warnings_other_than_its_tables_audit(tmp_path, wrong):
    # such a file used to load, and re-serialize to other bytes than its own
    def tamper(doc):
        assert doc["warnings"] == []
        doc["warnings"] = wrong

    with pytest.raises(LibraryFormatError, match="warnings disagree with the audit"):
        load_library(_tampered_fixture(tmp_path, tamper))


def _grid_defect(defect, cells, b_max):
    """(cells, b_max) with one cell missing, or with b_max lowered so the deepest cells are extra."""
    if defect == "missing":
        return {key: q for key, q in cells.items() if key != (2, 1)}, b_max
    return cells, b_max - 1


_GRID_DEFECT_MATCH = {
    "missing": r"missing cells \[\(2, 1\)\], extra cells \[\]",
    "extra": r"missing cells \[\], extra cells \[\(3, 0\), \(3, 1\)\]",
}


@pytest.mark.parametrize("defect", sorted(_GRID_DEFECT_MATCH))
def test_library_refuses_an_incomplete_grid(tmp_path, small_lib, defect):
    cells, b_max = _grid_defect(defect, small_lib.cells, small_lib.b_max)
    match = _GRID_DEFECT_MATCH[defect]
    with pytest.raises(ValueError, match=match):
        QuantizerLibrary(
            b_max=b_max,
            epsilons=small_lib.epsilons,
            cells=cells,
            design=small_lib.design,
            gamma_thresholds=small_lib.gamma_thresholds,
        )
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(small_lib, cells=cells, b_max=b_max)

    def edit(doc):
        if defect == "missing":
            doc["cells"] = [c for c in doc["cells"] if (c["b"], c["eps_index"]) != (2, 1)]
        else:
            doc["b_max"] -= 1

    with pytest.raises(LibraryFormatError, match=match):
        load_library(_tampered(tmp_path, small_lib, edit))


@pytest.mark.parametrize("misfit", ["two bits", "another target"])
def test_library_refuses_a_cell_outside_its_slot(small_lib, misfit):
    # the planner reads the slot's distortion, the trial chain the cell itself
    wrong = small_lib.cells[(2, 0)] if misfit == "two bits" else small_lib.cells[(1, 1)]
    cells = dict(small_lib.cells)
    cells[(1, 0)] = wrong
    with pytest.raises(ValueError, match=r"cell \(1,0\): flips disagree with the epsilon grid"):
        dataclasses.replace(small_lib, cells=cells)
    with pytest.raises(ValueError, match=r"cell \(1,0\)"):
        QuantizerLibrary(small_lib.b_max, small_lib.epsilons, cells, small_lib.design, small_lib.gamma_thresholds)


def test_distortion_table_is_read_only(small_lib):
    for view in (small_lib.distortion_table(), small_lib.distortion_column(0)):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.5
    assert small_lib.distortion_table() is small_lib.distortion_table()


def test_replace_builds_a_new_table(small_lib):
    before = small_lib.distortion_table().copy()
    cells = dict(small_lib.cells)
    # each cell takes the other target's distortion, and stays in its slot
    cells[(1, 0)] = dataclasses.replace(cells[(1, 0)], normalized_distortion=before[1, 0])
    cells[(1, 1)] = dataclasses.replace(cells[(1, 1)], normalized_distortion=before[0, 0])
    swapped = dataclasses.replace(small_lib, cells=cells)
    assert swapped.distortion_table()[0, 0] == before[1, 0]
    assert swapped.distortion_table()[1, 0] == before[0, 0]
    assert np.array_equal(swapped.distortion_table()[:, 1:], before[:, 1:])
    assert np.array_equal(small_lib.distortion_table(), before)


def test_distortion_table_rows_are_the_columns(small_lib):
    table = small_lib.distortion_table()
    assert table.shape == (small_lib.epsilons.size, small_lib.b_max)
    for qi in range(small_lib.epsilons.size):
        assert np.array_equal(table[qi], small_lib.distortion_column(qi))


def _assert_step_table_of(lib):
    steps, increments = lib.step_table()
    n = lib.epsilons.size
    assert steps.shape == (n, len(QAM_BITS) + 1) and increments.shape == (n, len(QAM_BITS))
    for qi in range(n):
        column = np.concatenate(([0.0], lib.gamma_thresholds[:, qi]))
        assert np.array_equal(steps[qi], column)
        assert np.array_equal(increments[qi], np.diff(column))  # bit for bit


def test_step_table_is_read_only_and_holds_each_targets_steps(small_lib, default_lib):
    for lib in (small_lib, default_lib):
        _assert_step_table_of(lib)
    for table in small_lib.step_table():
        with pytest.raises(ValueError, match="read-only"):
            table[0, 1] = 1.0
    assert small_lib.step_table()[0] is small_lib.step_table()[0]


def test_step_table_follows_replace_and_load(tmp_path, small_lib):
    grid = np.array([0.02, 0.04])
    # cells that fit the moved grid's slots
    cells = {
        (b, qi): dataclasses.replace(q, designed_for=np.full(b, grid[qi])) for (b, qi), q in small_lib.cells.items()
    }
    moved = dataclasses.replace(
        small_lib, epsilons=grid, cells=cells, gamma_thresholds=_threshold_table(grid, snr_threshold)
    )
    _assert_step_table_of(moved)
    assert not np.array_equal(moved.step_table()[1], small_lib.step_table()[1])
    path = tmp_path / "lib.json"
    save_library(small_lib, path)
    loaded = load_library(path)
    _assert_step_table_of(loaded)
    for got, want in zip(loaded.step_table(), small_lib.step_table()):
        assert np.array_equal(got, want)


def test_gamma_increments_convex_takes_a_table_column_by_column(small_lib):
    columns = [np.array([0.0, 1.0, 2.5, 4.0, 8.0]), np.array([0.0, 1.0, 1.5, 3.0, 6.0])]
    assert [gamma_increments_convex(c) for c in columns] == [True, False]
    for c in columns:
        got = gamma_increments_convex(c)
        assert isinstance(got, np.bool_) and got.ndim == 0 and got == gamma_increments_convex(c[:, None])[0]
    assert gamma_increments_convex(np.stack(columns, axis=1)).tolist() == [True, False]
    # a library refuses the columns the table test rejects
    gamma = small_lib.gamma_thresholds.copy()
    gamma[:, 1] = columns[1][1:]
    with pytest.raises(ValueError, match="shrink at target 0.05 \\(eps index 1\\)"):
        dataclasses.replace(small_lib, gamma_thresholds=gamma)


# threshold tables a library refuses, each as a grid and a stand-in for
# modem.snr_threshold; the real thresholds of 0.35 shrink, so the last case
# is build_library(1, [0.35])
_BAD_THRESHOLDS = {
    "wrong shape": ((0.01, 0.05), lambda m, e: np.full(2, snr_threshold(m, e)), "wrong shape"),
    "off target": ((0.01, 0.05), lambda m, e: snr_threshold(m, e) * (1.0 + 1e-4 * (m == 4)), "4-bit QAM miss"),
    "not finite": ((0.01, 0.05), lambda m, e: np.nan if m == 6 else snr_threshold(m, e), "finite"),
    "zero first step": ((0.01, 0.05), lambda m, e: 0.0 if m == 2 else snr_threshold(m, e), "first step"),
    "shrinking step": ((0.35,), snr_threshold, "shrink at target 0.35"),
}


def _threshold_table(grid, threshold):
    return np.array([[threshold(m, e) for e in grid] for m in QAM_BITS])


def _never_designed(*args, **kwargs):
    raise AssertionError("a cell was designed before the threshold table was checked")


@pytest.mark.parametrize("defect", sorted(_BAD_THRESHOLDS))
def test_build_rejects_bad_threshold_table_before_any_design(monkeypatch, defect):
    grid, threshold, match = _BAD_THRESHOLDS[defect]
    monkeypatch.setattr(modem, "snr_threshold", threshold)
    monkeypatch.setattr(library, "design_channel_optimized", _never_designed)
    with pytest.raises(ValueError, match=match):
        build_library(1, grid)


@pytest.mark.parametrize("defect", sorted(_BAD_THRESHOLDS))
def test_replace_rejects_bad_threshold_table(small_lib, defect):
    grid, threshold, match = _BAD_THRESHOLDS[defect]
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(small_lib, epsilons=np.array(grid), gamma_thresholds=_threshold_table(grid, threshold))


def _retabled(small_lib, grid, threshold):
    """Document edit moving small_lib to grid, its cells' flips and distortions along."""

    def edit(doc):
        doc["epsilons"] = [float(eps).hex() for eps in grid]
        doc["cells"] = [c for c in doc["cells"] if c["eps_index"] < len(grid)]
        for cell in doc["cells"]:
            b, qi = cell["b"], cell["eps_index"]
            flips = uniform_bsc(b, grid[qi])
            cell["flips"] = [f.hex() for f in flips]
            cell["distortion"] = analytic_distortion(small_lib.cells[(b, qi)], flips).hex()
        table = _threshold_table(grid, threshold)
        doc["gamma_thresholds"] = [[float(v).hex() for v in np.ravel(row)] for row in table]

    return edit


@pytest.mark.parametrize("defect", sorted(_BAD_THRESHOLDS))
def test_load_rejects_bad_threshold_table(tmp_path, small_lib, defect):
    grid, threshold, match = _BAD_THRESHOLDS[defect]
    with pytest.raises(LibraryFormatError, match=match):
        load_library(_tampered(tmp_path, small_lib, _retabled(small_lib, grid, threshold)))
