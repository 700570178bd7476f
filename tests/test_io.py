"""File formats: delimited matrices, key-value reports, PGM maps."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from slrnmf import io
from slrnmf.io import (
    PGM_MAXVAL,
    load_matrix,
    read_report,
    report_values,
    save_matrix,
    save_results,
    write_pgm,
    write_report,
)
from slrnmf.initializers import init_uniform
from slrnmf.solver import SolverConfig, solve
from slrnmf.synth import default_library_path, simulate


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.uniform(-1.0, 1.0, size=(7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back, m)


def test_layout_transposes_on_load(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    assert load_matrix(path, layout="pixels-by-bands").shape == (4, 3)
    assert np.array_equal(load_matrix(path, layout="pixels-by-bands"), m.T)
    with pytest.raises(ValueError, match="layout"):
        load_matrix(path, layout="sideways")


def test_load_skips_comments_and_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# a comment\nc1,c2\n1,2\n\n# more\n3,4\n")
    m = load_matrix(path, header=True)
    assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


def test_load_custom_delimiter(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1;2;3\n4;5;6\n")
    assert np.array_equal(load_matrix(path, delimiter=";"),
                          [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_load_reports_non_numeric_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(ValueError, match="non-numeric value 'oops' at line 2, column 2"):
        load_matrix(path)


def test_load_reports_non_finite_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,inf\n")
    with pytest.raises(ValueError, match="non-finite value 'inf' at line 2, column 2"):
        load_matrix(path)


def test_load_reports_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="ragged row at line 2: expected 3 values, got 2"):
        load_matrix(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no numeric data"):
        load_matrix(path)


# (name, file contents, load_matrix keyword arguments).  Bytes are written
# as given, so line endings and encodings reach the parser unchanged.
PARSE_CORPUS = [
    ("plain", b"1,2,3\n4,5,6\n", {}),
    ("padded", b" 1 , 2 \n+3,-0\n", {}),
    ("exponents", b"1e-300,.5,5.,1E3\n4.9e-324,-2.5e17,0,7\n", {}),
    ("one row", b"1,2,3\n", {}),
    ("one column", b"1\n2\n3\n", {}),
    ("header", b"# c\nh1,h2\n1,2\n", {"header": True}),
    ("comments and blanks", b"# a\n\n1,2\n  \n# b\n3,4\n", {}),
    ("crlf", b"1,2\r\n3,4\r\n", {}),
    ("pixels-by-bands", b"1,2,3\n4,5,6\n", {"layout": "pixels-by-bands"}),
    ("tab", b"1\t2\n3\t 4\n", {"delimiter": "\t"}),
    ("whitespace runs", b"1  2\n3 4\n", {"delimiter": None}),
    ("hash delimiter", b"1#2\n3#4\n", {"delimiter": "#"}),
    ("mid-line hash", b"1,2\n3,4 # note\n", {}),
    ("trailing delimiter", b"1,2,\n3,4,\n", {}),
    ("double space", b"1  2\n3  4\n", {"delimiter": " "}),
    ("two-character delimiter", b"1::2\n3::4\n", {"delimiter": "::"}),
    ("empty delimiter", b"1,2\n", {"delimiter": ""}),
    ("underscore", b"1_0,2\n3,4\n", {}),
    ("arabic-indic digit", "\u0661,2\n3,4\n".encode("utf-8"), {}),
    ("blank field", b"1, ,2\n", {}),
    ("quoted", b'"1",2\n', {}),
    ("hex", b"0x10,2\n", {}),
    ("nan", b"1,2\nnan,4\n", {}),
    ("inf", b"1,inf\n", {}),
    ("Infinity", b"-Infinity,1\n", {}),
    ("overflow", b"1e400,1\n", {}),
    ("ragged", b"1,2,3\n4,5\n", {}),
    ("empty file", b"", {}),
    ("comment-only", b"# nothing here\n", {}),
    ("header on comment-only", b"# c\nh1,h2\n", {"header": True}),
    ("not utf-8", b"1,2\ncaf\xe9,3\n", {}),
]


def _token_reference(path, layout="bands-by-pixels", delimiter=",",
                     header=False):
    matrix = io._parse_tokens(path, delimiter, header)
    if layout == "pixels-by-bands":
        matrix = matrix.T
    return np.ascontiguousarray(matrix)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name,data,kwargs", PARSE_CORPUS,
                         ids=[c[0] for c in PARSE_CORPUS])
def test_load_matches_token_parser(tmp_path, name, data, kwargs):
    """The numpy path gives the token parser's bits or its exact error."""
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _outcome(_token_reference, path, **kwargs)
        got = _outcome(load_matrix, path, **kwargs)
    _assert_same_outcome(got, want)


def test_load_matches_token_parser_on_package_and_synth_files(tmp_path):
    y, truth = simulate(224, 300, 4, 0.3, 1e-3, 0)
    save_matrix(tmp_path / "y.csv", y)
    save_matrix(tmp_path / "w.csv", truth.w_true)
    paths = [default_library_path(), tmp_path / "y.csv", tmp_path / "w.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            for layout in ("bands-by-pixels", "pixels-by-bands"):
                # These files take the numpy path, not the fallback.
                assert io._parse_numpy(path, ",", False) is not None
                _assert_same_outcome(load_matrix(path, layout=layout),
                                     _token_reference(path, layout=layout))


def test_load_peak_memory_stays_near_result_size(tmp_path):
    y, _ = simulate(224, 5000, 4, 0.3, 1e-3, 0)
    path = tmp_path / "y.csv"
    save_matrix(path, y)
    del y
    tracemalloc.start()
    try:
        loaded = load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.shape == (224, 5000)
    assert peak < 2.0 * loaded.nbytes, peak / loaded.nbytes


def _loop_formatted_matrix(matrix, delimiter):
    return "".join(delimiter.join("%.17g" % v for v in row) + "\n"
                   for row in matrix)


@pytest.mark.parametrize("delimiter", [",", ";", "%", " %d "])
def test_save_matrix_bytes_match_per_value_formatting(tmp_path, delimiter):
    rng = np.random.default_rng(3)
    m = rng.uniform(-1.0, 1.0, size=(6, 9))
    m *= 10.0 ** rng.integers(-300, 300, size=(6, 9))
    m[0, :3] = [0.0, -0.0, 5e-324]
    path = tmp_path / "m.csv"
    save_matrix(path, m, delimiter=delimiter)
    assert path.read_text() == _loop_formatted_matrix(m, delimiter)


def test_save_matrix_comments_and_empty(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix(path, np.ones((2, 2)), comments=("hello", "world"))
    text = path.read_text()
    assert text.startswith("# hello\n# world\n")
    empty = tmp_path / "e.csv"
    save_matrix(empty, np.zeros((0, 3)))
    assert "empty matrix: 0 rows x 3 columns" in empty.read_text()
    with pytest.raises(ValueError, match="no numeric data"):
        load_matrix(empty)


def test_report_round_trip_types(tmp_path):
    values = {
        "a.int": 17,
        "a.float": 0.1,
        "a.small": 1e-300,
        "a.neg": -2.5e17,
        "b.flag_true": True,
        "b.flag_false": False,
        "b.nothing": None,
        "c.text": 'quote " backslash \\ comma, bracket ]',
        "c.list": [1, 2.5, "x", None, True],
        "c.nested": [[1, 2], [3.5, "y"]],
        "c.empty": [],
    }
    path = tmp_path / "r.txt"
    write_report(path, values)
    back = read_report(path)
    assert back["schema_version"] == 1
    for key, val in values.items():
        assert back[key] == val, key
    assert isinstance(back["a.int"], int)
    assert isinstance(back["a.float"], float)
    assert back["b.flag_true"] is True
    assert back["b.nothing"] is None


def test_report_preserves_given_schema_version(tmp_path):
    path = tmp_path / "r.txt"
    write_report(path, {"schema_version": 3, "x": 1})
    assert read_report(path)["schema_version"] == 3


def test_report_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="line 1 is not 'key = value'"):
        read_report(path)
    for value in ("[1, 2", '"oops', "wat"):
        path.write_text("x = %s\n" % value)
        with pytest.raises(ValueError, match="line 1: cannot parse value"):
            read_report(path)
    path.write_text(" = 3\n")
    with pytest.raises(ValueError, match="empty key"):
        read_report(path)
    # Hand-typed spellings that write_report never writes.
    for value in (".5", "1.", "+1", "007", "1_000", "INF", "-Inf", "-nan",
                  "Infinity", "NaN", "null"):
        path.write_text("# hand-typed\nok = 1\nx = %s\n" % value)
        with pytest.raises(ValueError,
                           match=r"bad\.txt: line 3: cannot parse value"):
            read_report(path)


def test_report_bytes_are_pinned(tmp_path):
    # perfbench's report reader and `unmix --from-report` read these bytes.
    values = {
        "int": 7,
        "np_int": np.int64(-3),
        "big": 2 ** 70,
        "float": 0.1,
        "np_float": np.float32(0.1),
        "large": 1e16,
        "tiny": 5e-324,
        "neg_zero": -0.0,
        "pos_inf": np.inf,
        "neg_inf": -np.inf,
        "nan": np.nan,
        "nothing": None,
        "yes": True,
        "no": np.bool_(False),
        "text": 'q " b \\ none inf = # [x], caf\u00e9\tend',
        "list": [1, 2.5, "none", None, -np.inf],
        "tuple": (1, (2, "x")),
        "array": np.arange(4.0).reshape(2, 2),
        "empty": [],
    }
    expected = "".join(line + "\n" for line in [
        "schema_version = 1",
        "int = 7",
        "np_int = -3",
        "big = 1180591620717411303424",
        "float = 0.1",
        "np_float = 0.10000000149011612",
        "large = 1e+16",
        "tiny = 5e-324",
        "neg_zero = -0.0",
        "pos_inf = inf",
        "neg_inf = -inf",
        "nan = nan",
        "nothing = none",
        "yes = true",
        "no = false",
        'text = "q \\" b \\\\ none inf = # [x], caf\u00e9\\tend"',
        'list = [1, 2.5, "none", none, -inf]',
        'tuple = [1, [2, "x"]]',
        "array = [[0.0, 1.0], [2.0, 3.0]]",
        "empty = []",
    ])
    path = tmp_path / "r.txt"
    write_report(path, values)
    assert path.read_text(encoding="utf-8") == expected
    back = read_report(path)
    assert repr(back) == repr(dict({"schema_version": 1}, **_as_read(values)))


def _as_read(value):
    """What read_report returns for a written value: Python scalars, lists."""
    if isinstance(value, dict):
        return {k: _as_read(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return _as_read(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_as_read(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


_REPORT_CHARS = list('a"\\=#,[] \t\n\r\x00\x1f\x7f\x85\u00e9\u2028\u6f22')
_report_strings = st.lists(
    st.one_of(st.text(st.sampled_from(_REPORT_CHARS), min_size=1, max_size=3),
              st.sampled_from(["none", "inf", "nan", "null", "Infinity", "NaN"])),
    max_size=4).map("".join)
_report_floats = st.one_of(st.floats(),
                           st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
_report_scalars = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    _report_floats, _report_floats.map(np.float64), _report_strings)
_report_nested = st.recursive(
    _report_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=6)
_array_shapes = hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)
_report_arrays = st.one_of(
    hnp.arrays(np.float64, _array_shapes, elements=_report_floats),
    hnp.arrays(np.int64, _array_shapes))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=_report_strings, scalar=_report_scalars, nested=_report_nested,
       array=_report_arrays)
def test_report_round_trips_any_value(tmp_path_factory, text, scalar, nested,
                                      array):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    written = {"text": text, "scalar": scalar, "nested": nested, "array": array}
    write_report(path, written)
    # repr tells int from float from bool and compares NaN as NaN.
    assert repr(read_report(path)) == repr(
        dict({"schema_version": 1}, **_as_read(written)))


def test_write_pgm_scaling(tmp_path):
    image = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "m.pgm"
    lo, hi = write_pgm(path, image)
    assert (lo, hi) == (0.0, 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == str(PGM_MAXVAL)
    pixels = [int(v) for line in lines[3:] for v in line.split()]
    assert pixels == [0, round(0.5 * PGM_MAXVAL), PGM_MAXVAL,
                      round(0.25 * PGM_MAXVAL)]


def test_write_pgm_constant_image_is_midgray(tmp_path):
    path = tmp_path / "c.pgm"
    lo, hi = write_pgm(path, np.full((2, 3), 7.0))
    assert lo == hi == 7.0
    pixels = [int(v) for line in path.read_text().splitlines()[3:]
              for v in line.split()]
    assert set(pixels) == {(PGM_MAXVAL - 1) // 2}


def test_write_pgm_bytes_match_per_value_formatting(tmp_path):
    image = np.random.default_rng(4).uniform(0.0, 1.0, size=(50, 100))
    path = tmp_path / "m.pgm"
    write_pgm(path, image)
    lo = image.min()
    scaled = np.rint((image - lo) / (image.max() - lo) * PGM_MAXVAL).astype(np.int64)
    rows = "".join(" ".join("%d" % v for v in row) + "\n" for row in scaled)
    assert path.read_text() == "P2\n100 50\n%d\n" % PGM_MAXVAL + rows


def test_write_pgm_validates(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(tmp_path / "x.pgm", np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        write_pgm(tmp_path / "x.pgm", np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError, match="must be real"):
        write_pgm(tmp_path / "x.pgm", [[1 + 2j, 3 + 0j]])
    with pytest.raises(ValueError, match="non-empty"):
        write_pgm(tmp_path / "x.pgm", np.zeros((0, 3)))


def _tiny_solve():
    rng = np.random.default_rng(0)
    phi_t = rng.uniform(0.2, 1.0, size=(5, 2))
    w_t = rng.uniform(0.0, 1.0, size=(6, 2))
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(5, 6, 3, 0)
    config = SolverConfig(r=3, delta=0.05, lambda1=0.001, eta=0.05, max_iter=40)
    return solve(y, phi0, w0, config)


def test_report_values_flattens_solver_report():
    _, _, report = _tiny_solve()
    values = report_values(report)
    assert values["config.r"] == 3
    assert values["config.delta"] == 0.05
    assert values["result.iterations"] == report.iterations
    assert values["result.final_effective_rank"] == report.final_effective_rank
    assert len(values["trace.cost"]) == report.iterations
    assert values["timing.wall_time_s"] == report.wall_time
    passthrough = report_values({"x": 1})
    assert passthrough == {"x": 1}
    with pytest.raises(TypeError, match="dict or a solver report"):
        report_values(42)


def test_report_config_block_follows_solver_config_fields():
    _, _, report = _tiny_solve()
    keys = list(report_values(report))
    config_keys = ["config." + f.name for f in dataclasses.fields(SolverConfig)]
    assert keys[:1 + len(config_keys)] == ["schema_version"] + config_keys
    assert [k for k in keys if k.startswith("config.")] == config_keys


def test_save_results_writes_everything(tmp_path):
    phi, w, report = _tiny_solve()
    out = tmp_path / "run"
    paths = save_results(phi, w, report, out, height=2, width=3)
    back_phi = load_matrix(paths["endmembers"])
    back_w = load_matrix(paths["abundances"])
    assert np.array_equal(back_phi, phi)
    assert np.array_equal(back_w, w)
    values = read_report(paths["report"])
    assert values["maps.count"] == phi.shape[1]
    assert values["maps.height"] == 2
    assert values["maps.width"] == 3
    assert len(paths["maps"]) == phi.shape[1]
    for i, map_path in enumerate(paths["maps"]):
        assert ("maps.map_%d.min" % i) in values
        with open(map_path) as f:
            assert f.readline().strip() == "P2"


def test_save_results_validates_geometry(tmp_path):
    phi, w, report = _tiny_solve()
    with pytest.raises(ValueError, match="does not match"):
        save_results(phi, w, report, tmp_path / "bad", height=4, width=4)
    with pytest.raises(ValueError, match="together"):
        save_results(phi, w, report, tmp_path / "bad2", height=2)
    with pytest.raises(ValueError, match="height must be an integer >= 1"):
        save_results(phi, w, report, tmp_path / "bad3", height=2.5, width=3)
    with pytest.raises(ValueError, match="width must be an integer >= 1"):
        save_results(phi, w, report, tmp_path / "bad4", height=2, width=3.2)
