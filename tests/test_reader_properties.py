"""Property test: the edge and labels readers give what the line reader gives.

Plain files take one `np.loadtxt` pass and every other file goes through the
line reader, so on any file the public readers must return byte-identical
arrays (and id map) to the line reader, or raise the same class with the same
message. Files start plain and then get up to three faults, each a feature
the line reader exists for. A leading byte-order mark changes neither result.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tmgad import txgraph as tg  # noqa: E402

# fixed and offline: the same examples on every run, no example database
PROFILE = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.function_scoped_fixture])

# what numpy reads as the line reader does
PAD = st.sampled_from(["", "", "", "", " ", "\t", "\xa0", "\u3000", "\x0b"])
SPELLED = st.sampled_from(["{}", "{}", "{}", "+{}", "0{}"])
AMOUNT = st.one_of(st.floats(0, 1e6, allow_nan=False).map(repr),
                   st.sampled_from(["nan", "-nan", "NaN", "Infinity", "inf", "-0.0", ".5",
                                    "5.", "+3", "1e-3", "1e400"]))
LABEL = st.sampled_from(["0", "1", "-1", "0", "1", "-1", " -1", "+1", "-0"])
END = st.sampled_from(["\n", "\n", "\r\n", "\r"])
# what it does not; ids stay small, as a valid id near 2**40 makes both readers
# allocate arrays of that length
ODD_INT = st.sampled_from(["{}.0", "{}e0", "1_{}", "-{}", "\u0661{}", "\u200b{}"])
ODD_ID = st.sampled_from(["99999999999999999999", "-9223372036854775809", "0xa", "acct7",
                          "nan", "inf", "", "1.5", "-0"])
ODD_TIME = st.sampled_from(["9223372036854775807", "9223372036854775808", "-1", "1e3",
                            "nan", "", "2.5", "0x1f"])
ODD_AMOUNT = st.sampled_from(["0x1p3", "", "-2.5", "1_0", "\u0661.5", "x", "-inf"])
# numpy reads these as integers the line reader rejects
BAD_LABEL = st.sampled_from(["-01", "2", "-2", "-9223372036854775808"])
ODD_LABEL = st.sampled_from(["", "1.0", "x", "9223372036854775808", "\u0661"])
ODD_LINE = st.sampled_from(["", "   ", "# note", "#", "1,2", "1,2,3,4,5", "a,b", "1,2,3"])


def number(value: int, odd: bool = False) -> st.SearchStrategy:
    spelling = ODD_INT if odd else SPELLED
    return st.tuples(PAD, spelling.map(lambda s: s.format(value)), PAD).map("".join)


@st.composite
def plain_edge_rows(draw, width):
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        s = draw(st.integers(0, 7))
        d = (s + draw(st.integers(1, 7))) % 8
        row = [draw(number(s)), draw(number(d)), draw(number(draw(st.integers(0, 30))))]
        if width == 4:
            row.append(draw(st.tuples(PAD, AMOUNT, PAD).map("".join)))
        rows.append(row)
    return rows


@st.composite
def edge_fault(draw, rows, width):
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    # numpy reads negative values and self-loops; only the line reader rejects them
    negative = [f"negative {j}" for j in range(len(row))]
    kind = draw(st.sampled_from(negative + ["loop", "loop", "id", "time", "width", "comma"]
                                + ["amount"] * (len(row) == 4)))
    if kind.startswith("negative"):
        j = int(kind[-1])
        row[j] = draw(st.sampled_from(["-2.5", "-inf"]) if j == 3 else
                      st.integers(1, 7).map("-{}".format))
    elif kind == "id":
        row[draw(st.integers(0, 1))] = draw(st.one_of(
            number(draw(st.integers(0, 7)), odd=True), ODD_ID))
    elif kind == "time":
        row[2] = draw(st.one_of(number(draw(st.integers(0, 30)), odd=True), ODD_TIME))
    elif kind == "amount":
        row[3] = draw(ODD_AMOUNT)
    elif kind == "loop":
        row[1] = row[0]
    elif kind == "width":
        rows[i] = row[:3] if width == 4 else row + [draw(AMOUNT)]
    else:
        row[-1] += ","


@st.composite
def plain_label_rows(draw):
    nodes = draw(st.permutations(range(N_NODES)))[:draw(st.integers(1, N_NODES))]
    return [[draw(number(v)), draw(LABEL)] for v in nodes]


@st.composite
def label_fault(draw, rows):
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["repeat", "range", "bad label", "node", "odd label"]))
    if kind == "repeat":
        rows.insert(draw(st.integers(0, len(rows))), [rows[i][0], draw(LABEL)])
    elif kind == "range":
        rows[i][0] = draw(st.sampled_from([str(N_NODES), "-1"]))
    elif kind == "node":
        rows[i][0] = draw(st.one_of(number(draw(st.integers(0, N_NODES - 1)), odd=True),
                                    ODD_ID))
    elif kind == "bad label":
        rows[i][1] = draw(BAD_LABEL)
    else:
        rows[i][1] = draw(ODD_LABEL)


@st.composite
def csv_text(draw, rows, header, row_fault):
    """A file of `rows`, maybe with a header, then up to three faults."""
    lines = [header] if draw(st.booleans()) else []
    text_faults = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["row"] * 5 + ["line", "first", "char", "only header"]))
        if kind == "row":
            draw(row_fault(rows))
        else:
            text_faults.append(kind)
    lines += [",".join(r) for r in rows]
    for kind in text_faults:
        if kind == "line":
            lines.insert(draw(st.integers(1, len(lines))), draw(ODD_LINE))
        elif kind == "first":
            lines.insert(0, draw(st.sampled_from(["", "# exported", "\ufeff" + header])))
        elif kind == "only header":
            lines = [header]
    end = draw(END)
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    if "char" in text_faults:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([",", " ", "\ufeff", "\u200b", "\r"])) + text[at:]
    return text


@st.composite
def edge_files(draw):
    width = draw(st.sampled_from([3, 4]))
    header = "src,dst,timestamp" + (",amount" if width == 4 else "")
    rows = draw(plain_edge_rows(width))
    return draw(csv_text(rows, header, lambda rows: edge_fault(rows, width)))


N_NODES = 6


@st.composite
def label_files(draw):
    return draw(csv_text(draw(plain_label_rows()), "node_id,label", label_fault))


BOM = "\ufeff"  # the UTF-8 byte-order mark spreadsheet tools write first


def outcome(read):
    try:
        return "ok", read()
    except Exception as e:  # the class and message are what the readers must agree on
        return type(e), str(e)


def edge_arrays(g_and_map):
    g, id_map = g_and_map
    return (g.n, id_map, *((a.dtype.str, a.tobytes())
                           for a in (g.src, g.dst, g.timestamp, g.amount)))


@PROFILE
@given(text=edge_files(), compact=st.booleans())
def test_edge_reader_equals_line_reader(tmp_path, text, compact):
    p = tmp_path / "edges.csv"
    p.write_bytes(text.encode("utf-8"))
    got = outcome(lambda: edge_arrays(tg.read_edge_list(p, compact=compact)))
    want = outcome(lambda: edge_arrays(tg._read_edge_lines(p, compact)))
    assert got == want


@PROFILE
@given(text=label_files())
def test_labels_reader_equals_line_reader(tmp_path, text):
    g = tg.build_graph(N_NODES, [0, 2, 4], [1, 3, 5], [1, 2, 3])
    fp = tmp_path / "features.csv"
    fp.write_text("".join(f"{v}.5\n" for v in range(N_NODES)))
    lp = tmp_path / "labels.csv"
    lp.write_bytes(text.encode("utf-8"))
    got = outcome(lambda: tg.attach_features_labels(g, fp, lp).labels.tobytes())
    want = outcome(lambda: tg._read_label_lines(lp, N_NODES).tobytes())
    assert got == want


@PROFILE
@given(text=edge_files(), compact=st.booleans())
def test_edge_reader_ignores_a_leading_bom(tmp_path, text, compact):
    hypothesis.assume(not text.startswith(BOM))
    p = tmp_path / "edges.csv"
    got = []
    for prefix in ("", BOM):
        p.write_bytes((prefix + text).encode("utf-8"))
        got.append(outcome(lambda: edge_arrays(tg.read_edge_list(p, compact=compact))))
    assert got[0] == got[1]


@PROFILE
@given(text=label_files())
def test_labels_reader_ignores_a_leading_bom(tmp_path, text):
    hypothesis.assume(not text.startswith(BOM))
    g = tg.build_graph(N_NODES, [0, 2, 4], [1, 3, 5], [1, 2, 3])
    fp = tmp_path / "features.csv"
    fp.write_text("".join(f"{v}.5\n" for v in range(N_NODES)))
    lp = tmp_path / "labels.csv"
    got = []
    for prefix in ("", BOM):
        lp.write_bytes((prefix + text).encode("utf-8"))
        got.append(outcome(lambda: tg.attach_features_labels(g, fp, lp).labels.tobytes()))
    assert got[0] == got[1]
