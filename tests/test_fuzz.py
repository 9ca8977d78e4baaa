"""Fuzzing of the four readers of outside files.

Any text must either parse or raise the reader's own named error
(`PipelineError`, `ConfigError`, or `ValueError` for the grid reader): never
a raw numpy error, `KeyError`, `StopIteration`, csv or configparser exception.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from eulergmm.config import KNOWN_KEYS, ConfigError, parse_config
from eulergmm.grids import read_grid_csv
from eulergmm.pipeline import PipelineError, load_series_csv, read_panel_csv

FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# cells that are near-misses of valid input: quarters, numbers, separators
cells = st.one_of(
    st.sampled_from(["1967Q1", "1967Q2", "1967Q3", "2019Q4", "1967Q5", "date", "value",
                     "nan", "inf", "-1", "0", "1.5", "1e400", "", " ", "\"", "x"]),
    st.text(max_size=8),
)
rows = st.lists(st.lists(cells, max_size=4).map(",".join), max_size=6).map("\n".join)
csv_text = st.one_of(st.text(), rows, rows.map(lambda r: "date,value\n" + r))


def _check(read, path, text, error):
    path.write_text(text, encoding="utf-8")
    try:
        read(path)
    except error:
        pass


@FUZZ
@given(text=csv_text)
@example(text="")
@example(text="date,value\n1967Q1\n")
@example(text="date,value\n1967Q1,nan\n")
def test_load_series_csv(tmp_path, text):
    _check(load_series_csv, tmp_path / "series.csv", text, PipelineError)


@FUZZ
@given(text=st.one_of(csv_text, rows.map(lambda r: "date,delta_i,r_p\n" + r)))
@example(text="")
@example(text="date\n1967Q1\n")
@example(text="date,u\n1967Q1,inf\n")
def test_read_panel_csv(tmp_path, text):
    _check(read_panel_csv, tmp_path / "panel.csv", text, PipelineError)


@FUZZ
@given(text=st.one_of(csv_text, rows.map(lambda r: "a,b,stat\n" + r)))
@example(text="")
@example(text="\na,b\n")
@example(text="a,b\n1,\n")
def test_read_grid_csv(tmp_path, text):
    _check(read_grid_csv, tmp_path / "grid.csv", text, ValueError)


values = st.one_of(cells, st.lists(cells, min_size=1, max_size=3).map(",".join), st.text())
sections = st.sampled_from(sorted(KNOWN_KEYS)).flatmap(
    lambda name: st.lists(
        st.tuples(st.sampled_from(sorted(KNOWN_KEYS[name])), values), max_size=4,
    ).map(lambda items: f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items))
)
ini_text = st.one_of(st.text(), st.lists(sections, max_size=4).map("\n".join))


@FUZZ
@given(text=ini_text)
@example(text="[inference]\nlevel = abc\n")
@example(text="[data]\npanel = %(x)s\n")
def test_parse_config(tmp_path, text):
    _check(parse_config, tmp_path / "run.ini", text, ConfigError)

