import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routes import dataset_arrays_csv_module, one_hot_loop, read_csv_csv_module

from loora import dataset as dataset_module
from loora.dataset import build_dataset, read_csv
from loora.exceptions import SchemaError
from loora.reporting import read_records, record_line, write_records

DATA = Path(__file__).parent / "data"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_observed_fixture_loads():
    ds = build_dataset(
        DATA / "observed30.csv",
        covariates=["age", "score"],
        categorical=["region"],
        y_col="y",
        d_col="d",
    )
    assert ds.mode == "observed"
    assert ds.n == 30
    assert ds.columns[:2] == ("age", "score")
    assert all(col.startswith("region=") for col in ds.columns[2:])
    assert set(np.unique(ds.d)) == {0.0, 1.0}


def test_population_fixture_loads():
    ds = build_dataset(
        DATA / "population12.csv", covariates=["x1", "x2"], y1_col="y1", y0_col="y0"
    )
    assert ds.mode == "population"
    assert ds.y1 is not None and ds.y0 is not None and ds.y is None


def _categorical_only(tmp_path, levels, drop_first=False):
    """build_dataset of a file whose one covariate is the categorical column f."""
    lines = ["f,y,d"] + [f"{level},{i},{i % 2}" for i, level in enumerate(levels)]
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    return build_dataset(path, categorical=["f"], y_col="y", d_col="d", drop_first=drop_first)


def test_categorical_levels_keep_first_appearance_order(tmp_path):
    ds = _categorical_only(tmp_path, ["b", "a", "b", "c"])
    assert ds.columns == ("f=b", "f=a", "f=c")
    assert ds.x.tolist() == [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    ]


def test_categorical_drop_first(tmp_path):
    ds = _categorical_only(tmp_path, ["b", "a", "b", "c"], drop_first=True)
    assert ds.columns == ("f=a", "f=c")
    assert ds.x[0].tolist() == [0.0, 0.0]


def test_schema_requires_exactly_one_mode(tmp_path):
    path = write_csv(tmp_path, "y,d,y1,y0,x\n1,0,1,0,0.5\n2,1,2,1,0.2\n")
    with pytest.raises(SchemaError, match="not both"):
        build_dataset(path, covariates=["x"], y_col="y", d_col="d", y1_col="y1", y0_col="y0")
    with pytest.raises(SchemaError, match="no outcome columns"):
        build_dataset(path, covariates=["x"])
    with pytest.raises(SchemaError, match="missing column role d"):
        build_dataset(path, covariates=["x"], y_col="y")


def test_schema_errors_name_missing_and_bad_columns(tmp_path):
    path = write_csv(tmp_path, "y,d,x\n1,0,0.5\n2,1,oops\n")
    with pytest.raises(SchemaError, match="'nope' not found"):
        build_dataset(path, covariates=["nope"], y_col="y", d_col="d")
    with pytest.raises(SchemaError, match="not numeric"):
        build_dataset(path, covariates=["x"], y_col="y", d_col="d")


def test_schema_rejects_non_binary_treatment(tmp_path):
    path = write_csv(tmp_path, "y,d,x\n1,2,0.5\n2,1,0.3\n")
    with pytest.raises(SchemaError, match="binary"):
        build_dataset(path, covariates=["x"], y_col="y", d_col="d")


def test_schema_rejects_ragged_rows(tmp_path):
    path = write_csv(tmp_path, "y,d,x\n1,0,0.5\n2,1\n")
    with pytest.raises(SchemaError, match="fields"):
        build_dataset(path, covariates=["x"], y_col="y", d_col="d")


def test_probability_column_range(tmp_path):
    path = write_csv(tmp_path, "y,d,x,p\n1,0,0.5,0.4\n2,1,0.3,1.0\n")
    with pytest.raises(SchemaError, match="inside"):
        build_dataset(path, covariates=["x"], y_col="y", d_col="d", p_col="p")


def test_headerless_and_custom_delimiter(tmp_path):
    path = write_csv(tmp_path, "1;0;0.5\n2;1;0.3\n")
    ds = build_dataset(
        path, covariates=["c2"], y_col="c0", d_col="c1", delimiter=";", has_header=False
    )
    assert ds.n == 2
    assert ds.y.tolist() == [1.0, 2.0]


def test_quoted_fields_pass_through(tmp_path):
    path = write_csv(tmp_path, 'y,d,g\n1,0,"north, far"\n2,1,"south"\n')
    ds = build_dataset(path, categorical=["g"], y_col="y", d_col="d")
    assert ds.columns == ("g=north, far", "g=south")


@pytest.mark.parametrize(
    "text, kwargs, message",
    [
        ("y,d,x\n1,0,0.5\n2,1\n", {}, "row 2 has 2 fields, expected 3"),
        ('y,d,x\n\n1,0,"a\nb"\n\n2,1\n', {}, "row 2 has 2 fields, expected 3"),
        ("1,0,0.5\n2,1,0.3,9\n", {"has_header": False}, "row 2 has 4 fields, expected 3"),
        ("y,d,x\n1,0,0.5\n2,1, oops \n", {}, "column 'x' is not numeric (row 2: ' oops ')"),
        ("y,d,x\n1,0,0.5\n2,1,inf\n", {}, "column 'x' contains non-finite values (row 2: 'inf')"),
        ("y,d,x\n1,0,0.5\n2,1,0.3\n3,2,0.1\n", {}, "column 'd' must be binary 0/1 (row 3: 2.0)"),
        (
            "y,d,x,p\n1,0,0.5,0.4\n2,1,0.3,1.0\n",
            {"p_col": "p"},
            "column 'p' must lie strictly inside (0, 1) (row 2: 1.0)",
        ),
    ],
    ids=["ragged", "ragged-after-blank-and-quoted-newline", "ragged-headerless", "not-numeric",
         "non-finite", "non-binary-d", "p-range"],
)
def test_schema_errors_name_the_data_row(tmp_path, text, kwargs, message):
    path = write_csv(tmp_path, text)
    roles = ("c2", "c0", "c1") if kwargs.get("has_header") is False else ("x", "y", "d")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
        build_dataset(path, covariates=[roles[0]], y_col=roles[1], d_col=roles[2], **kwargs)


@pytest.mark.parametrize(
    "text, has_header, message",
    [("", True, "file is empty"), ("\n\n", True, "file is empty"),
     ("y,d,x\n", True, "no data rows"), ("1,0,0.5\n", False, None)],
    ids=["empty", "blank-lines", "header-only", "one-row-headerless"],
)
def test_small_files_load_or_raise_without_warnings(tmp_path, text, has_header, message):
    path = write_csv(tmp_path, text)
    roles = dict(covariates=["x"], y_col="y", d_col="d")
    if not has_header:
        roles = dict(covariates=["c2"], y_col="c0", d_col="c1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert build_dataset(path, has_header=has_header, **roles).n == 1
        else:
            with pytest.raises(SchemaError, match=message):
                build_dataset(path, has_header=has_header, **roles)


_DELIMITERS = (",", ";", "\t", "|", " ")
_CELL_TEXT = st.text(alphabet='ab1.# -"' + ',;\t|' + "\n\r", max_size=5)


@st.composite
def _csv_files(draw):
    """Delimited text with quoted and bare cells, stray quotes, padding, `#`,
    blank lines, LF or CRLF line ends and, sometimes, ragged rows."""
    delimiter = draw(st.sampled_from(_DELIMITERS))
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        cells = []
        for _ in range(max(1, width + draw(st.sampled_from((0, 0, 0, 0, 0, -1, 1))))):
            text = draw(_CELL_TEXT)
            if draw(st.booleans()):
                cells.append('"' + text.replace('"', '""') + '"')
            else:  # a bare cell: no delimiter or line break, no leading quote
                bare = "".join(c for c in text if c not in delimiter + "\n\r")
                cells.append(bare[1:] if bare.startswith('"') else bare)
        lines.append(delimiter.join(cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + draw(st.sampled_from((eol, ""))), delimiter, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_csv_files())
def test_read_csv_matches_the_csv_module(case):
    text, delimiter, has_header = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = read_csv_csv_module(path, delimiter=delimiter, has_header=has_header)
        except SchemaError:
            expected = SchemaError
        try:
            names, rows = read_csv(path, delimiter=delimiter, has_header=has_header)
            got = (names, rows.tolist())
        except SchemaError:
            got = SchemaError
    assert got == expected


def _padded_csv(path, rows=5000, levels=20, seed=3):
    """x1, x2, g (levels categories), y, d, p; numeric cells padded with
    U+001C-U+001F, U+00A0 and spaces, which Python's float accepts after str.strip."""
    rng = np.random.default_rng(seed)
    pads = ("", " ", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\t")
    lines = ["x1,x2,g,y,d,p"]
    for i in range(rows):
        x1, x2, y = rng.standard_normal(3).tolist()
        level = i if i < levels else int(rng.integers(levels))
        pad = pads[i % len(pads)]
        p = float(rng.uniform(0.1, 0.9))
        lines.append(f"{pad}{x1!r}{pad},{x2!r},{pad}g{level}{pad},{y!r}{pad},{i % 2},{pad}{p!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("drop_first", [False, True])
@pytest.mark.parametrize("case", ["observed30", "population12", "padded5000"])
def test_build_dataset_is_byte_identical_to_the_csv_module_route(tmp_path, case, drop_first):
    if case == "observed30":
        path, covariates, categorical = DATA / "observed30.csv", ["age", "score"], ["region"]
        roles = {"y": "y", "d": "d"}
    elif case == "population12":
        path, covariates, categorical = DATA / "population12.csv", ["x1", "x2"], []
        roles = {"y1": "y1", "y0": "y0"}
    else:
        path, covariates, categorical = _padded_csv(tmp_path / "padded.csv"), ["x1", "x2"], ["g"]
        roles = {"y": "y", "d": "d", "p": "p"}
    ds = build_dataset(path, covariates, categorical, drop_first=drop_first,
                       **{f"{role}_col": col for role, col in roles.items()})
    columns, x, outcomes = dataset_arrays_csv_module(path, covariates, categorical, roles,
                                                     drop_first=drop_first)
    assert ds.columns == columns
    assert ds.x.tobytes() == x.tobytes()
    for role, values in outcomes.items():
        assert getattr(ds, role).tobytes() == values.tobytes()


def _same_as_the_csv_module_route(path, covariates, categorical, roles, **read):
    """build_dataset and the csv-module route give equal array bytes, or the
    same SchemaError message. ``read`` takes drop_first and has_header."""
    try:
        expected = dataset_arrays_csv_module(path, covariates, categorical, roles, **read)
    except SchemaError as exc:
        expected = str(exc)
    try:
        ds = build_dataset(path, covariates, categorical,
                           **{f"{role}_col": col for role, col in roles.items()}, **read)
        got = (ds.columns, ds.x, {role: getattr(ds, role) for role in roles})
    except SchemaError as exc:
        got = str(exc)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert got[0] == expected[0]
    assert got[1].tobytes() == expected[1].tobytes()
    for role, values in expected[2].items():
        assert got[2][role].tobytes() == values.tobytes()


# Padding that str.strip removes: numpy's parser accepts all of it, Python's
# float all but U+001C-U+001F.
_PADS = ("", " ", "\t", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\u2003")
# Cells only Python's float reads (underscores, non-ASCII digits), and cells
# neither accepts as a finite number.
_PYTHON_ONLY = ("1_000", "-2_5.0_1", "１２", "١٢", "1e1_0")
_REFUSED = ("inf", "-inf", "nan", "", "1e400", "oops", "1 2")


@st.composite
def _number_cells(draw, faults):
    kinds = ["repr", "repr", "repr", "exponent", "python-only"] + ["refused"] * faults
    kind = draw(st.sampled_from(kinds))
    if kind == "repr":
        text = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    elif kind == "exponent":
        mantissa = draw(st.sampled_from(("1", "-2.5", "+.5", "7.", "0")))
        exponent = draw(st.integers(-330, 310 if faults else 300))
        text = f"{mantissa}{draw(st.sampled_from('eE'))}{exponent}"
    elif kind == "python-only":
        text = draw(st.sampled_from(_PYTHON_ONLY))
    else:
        text = draw(st.sampled_from(_REFUSED))
    text = draw(st.sampled_from(_PADS)) + text + draw(st.sampled_from(_PADS))
    return _maybe_quoted(draw, text)


def _maybe_quoted(draw, text):
    how = draw(st.sampled_from(("bare", "bare", "quoted", "line-break")))
    if how == "bare":
        return text
    if how == "line-break":
        text += draw(st.sampled_from(("\n", "\r\n", "\r")))
    return '"' + text.replace('"', '""') + '"'


@st.composite
def _dataset_files(draw):
    """An observed-mode file: 0 to 3 numeric covariates x0, x1, ..., 0 to 2
    categorical columns g0, g1 drawing from one set of level strings, y, d
    and p, and sometimes an undeclared text column, in any column order,
    usually with a header, with LF or CRLF line ends. About half the files
    hold cells that no route accepts."""
    faults = draw(st.booleans())
    rows = draw(st.integers(1, 6))
    binary = ["0", "1", " 1 ", "0.0", "1e0", '"1"', "\xa00"] + ["2", "1_0"] * faults
    probability = ["0.5", " 0.25", "0.1\x1c", '"0.75"', "0.2_5"] + ["1", "0"] * faults
    numeric = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    categorical = [f"g{i}" for i in range(draw(st.integers(0, 2)))]
    levels = st.sampled_from(("a", " a", "a\t", "b", "\xa0b", '"c\nd"', '""'))
    cells = {
        **dict.fromkeys(numeric, _number_cells(faults)),
        **dict.fromkeys(categorical, levels),
        "y": _number_cells(faults),
        "d": st.sampled_from(binary),
        "p": st.sampled_from(probability),
    }
    if draw(st.booleans()):
        cells["note"] = st.sampled_from(("hello", "", "1_000", '"a, b"', '"x\ny"', "#"))
    columns = {name: draw(st.lists(cell, min_size=rows, max_size=rows))
               for name, cell in cells.items()}
    order = draw(st.permutations(list(columns)))
    has_header = draw(st.integers(0, 3)) > 0
    lines = [",".join(order)] * has_header
    lines += [",".join(columns[c][i] for c in order) for i in range(rows)]
    # a headerless file names its columns c0, c1, ... by position
    name = {c: c if has_header else f"c{order.index(c)}" for c in order}
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + eol, name, has_header, numeric, categorical


@settings(max_examples=300, deadline=None)
@given(case=_dataset_files(), with_p=st.booleans(), drop_first=st.booleans())
def test_build_dataset_matches_the_csv_module_route(case, with_p, drop_first):
    text, name, has_header, numeric, categorical = case
    roles = {role: name[role] for role in (("p", "y", "d") if with_p else ("y", "d"))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        _same_as_the_csv_module_route(path, [name[c] for c in numeric],
                                      [name[c] for c in categorical], roles,
                                      drop_first=drop_first, has_header=has_header)


@pytest.mark.parametrize(
    "text, message",
    [
        ("y,d,x\n1,0,0.5\n2,1,0.3,9\n", "row 2 has 4 fields, expected 3"),
        ("y,d,x\n1,0,0.5\n2,1\n", "row 2 has 2 fields, expected 3"),
        ("y,d,x,w\n1,0,0.5\n2,1,0.3\n", "row 1 has 3 fields, expected 4"),
        ("y,d,x\n1,0,0.5,7\n2,1,0.3,8\n", "row 1 has 4 fields, expected 3"),
        ('y,d,x,"note\nhere"\n1,0,0.5,a\n2,1,0.3,"b\r\nc"\n', None),
        ("y,d,x,note\n1,0,0.5,hello\n2,1,0.3,\n3,0,1_000,1e400\n", None),
        ("y,d,x,g\n1,0,0.5, a\n2,1,0.3,a\n3,0,0.1,b\t\n", None),
        ('y,d,x,g\n1,0,0.5,"a\rb"\n2,1,0.3,"a\nb"\n3,0,0.1,"a\r\nb"\n', None),
        ("\n1,2,3\n0.5,0.25,1\n0.75,0.5,0\n", None),
        ('y,d,x,"note\n1,0,0.5,a"\n2,1,0.3,b\n3,0,0.1,c\n', None),
    ],
    ids=["over-wide-row", "short-row", "header-wider", "header-narrower",
         "quoted-header-line-break", "undeclared-text-column", "padded-levels-merge",
         "quoted-level-line-breaks", "blank-line-then-numeric-header",
         "header-closes-its-quote-on-a-row-like-line"],
)
def test_build_dataset_fixed_cases_match_the_csv_module_route(tmp_path, text, message):
    path = write_csv(tmp_path, text)
    header = text.lstrip("\n").split("\n")[0]
    x, y, d = ("1", "2", "3") if header == "1,2,3" else ("x", "y", "d")
    categorical = ["g"] if header == "y,d,x,g" else []
    _same_as_the_csv_module_route(path, [x], categorical, {"y": y, "d": d})
    if message is not None:
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            build_dataset(path, [x], categorical, y_col=y, d_col=d)


def test_build_dataset_matches_the_csv_module_route_past_100000_rows(tmp_path):
    path = _padded_csv(tmp_path / "large.csv", rows=100_003, levels=40, seed=5)
    _same_as_the_csv_module_route(path, ["x1", "x2"], ["g"], {"p": "p", "y": "y", "d": "d"},
                                  drop_first=True)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_csv_named_like_a_compressed_file_is_read_as_its_text(tmp_path, suffix):
    path = tmp_path / f"observed30.csv{suffix}"
    path.write_bytes((DATA / "observed30.csv").read_bytes())
    _same_as_the_csv_module_route(path, ["age", "score"], ["region"], {"y": "y", "d": "d"})


def test_a_csv_read_from_a_pipe_is_read_once(tmp_path):
    # as `--data <(zcat data.csv.gz)` gives it: a second open would miss what the first read
    path = _padded_csv(tmp_path / "padded.csv")
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def write():  # holding both ends, so a reader that closes early breaks no write
        fd = os.open(fifo, os.O_RDWR)
        view = memoryview(path.read_bytes())
        while view:
            view = view[os.write(fd, view):]
        os.close(fd)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    piped = build_dataset(fifo, ["x1", "x2"], ["g"], y_col="y", d_col="d")
    writer.join(timeout=10)
    assert not writer.is_alive()
    plain = build_dataset(path, ["x1", "x2"], ["g"], y_col="y", d_col="d")
    assert piped.x.tobytes() == plain.x.tobytes()
    assert piped.y.tobytes() == plain.y.tobytes()


def _refuse_the_text_route(*args):
    raise AssertionError("the text route was taken")


@pytest.mark.parametrize(
    "case",
    ["observed30", "padded5000", "observed30-crlf", "padded5000-crlf", "observed30-quoted-header"],
)
def test_plain_numeric_files_never_take_the_text_route(tmp_path, monkeypatch, case):
    if case.startswith("observed30"):
        path, covariates, categorical = DATA / "observed30.csv", ["age", "score"], ["region"]
    else:
        path, covariates, categorical = _padded_csv(tmp_path / "padded.csv"), ["x1", "x2"], ["g"]
    lines = path.read_text(encoding="utf-8").rstrip("\n").split("\n")
    names = lines[0].split(",")
    if case.endswith("quoted-header"):  # as R's write.csv writes it
        lines[0] = ",".join(f'"{name}"' for name in names)
    eol = "\r\n" if case.endswith("crlf") else "\n"
    path = tmp_path / "typed.csv"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    monkeypatch.setattr(dataset_module, "_read_cells", _refuse_the_text_route)
    _same_as_the_csv_module_route(path, covariates, categorical, {"y": "y", "d": "d"})
    # one cell only Python's float reads sends the same file to the text route
    cells = lines[1].split(",")
    cells[names.index("y")] = "1_000"
    lines[1] = ",".join(cells)
    with pytest.raises(AssertionError, match="text route"):
        build_dataset(write_csv(tmp_path, eol.join(lines), "underscore.csv"), covariates,
                      categorical, y_col="y", d_col="d")


@pytest.mark.parametrize("drop_first", [False, True])
def test_categorical_columns_match_the_literal_loop(tmp_path, drop_first):
    rng = np.random.default_rng(11)
    values = [f"v{j}" for j in rng.integers(0, 50, 1000)]
    ds = _categorical_only(tmp_path, values, drop_first=drop_first)
    ref_columns, ref_block = one_hot_loop(values, "f", drop_first=drop_first)
    assert list(ds.columns) == ref_columns
    assert ds.x.shape == ref_block.shape
    assert ds.x.tobytes() == ref_block.tobytes()


def test_record_round_trip(tmp_path):
    records = [
        {"record_type": "estimate", "tau_hat": 0.1234567890123456789, "n": 7, "ok": True},
        {"record_type": "estimate", "tau_hat": -1.5e-17, "n": 8, "label": "x,y"},
    ]
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    back = read_records(path)
    assert back[0]["tau_hat"] == records[0]["tau_hat"]
    assert back[1]["tau_hat"] == records[1]["tau_hat"]
    assert back[1]["label"] == "x,y"
    # writing what was read back reproduces the same bytes
    path2 = tmp_path / "records2.jsonl"
    write_records(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_record_line_float_precision():
    line = record_line({"v": 2.0 / 3.0})
    assert line == '{"v": 0.66666666666666663}'
