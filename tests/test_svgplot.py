"""SVG line-plot writer: structure, determinism, data handling."""
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cycleflow.svgplot import line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(tmp_path, series, **kw):
    path = tmp_path / "plot.svg"
    line_plot(series, path, **kw)
    return path


def test_plot_is_valid_xml_with_one_polyline_per_series(tmp_path):
    xs = np.linspace(0.0, 1.0, 20)
    path = render(tmp_path, [("a", xs, xs ** 2), ("b", xs, 1.0 - xs)],
                  title="curves", xlabel="x", ylabel="y")
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    # each polyline carries every (finite) sample of its series
    assert len(polylines[0].attrib["points"].split()) == 20
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "curves" in texts and "a" in texts and "b" in texts


def test_plot_output_is_deterministic(tmp_path):
    xs = np.linspace(0.0, 5.0, 11)
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    line_plot([("s", xs, np.sin(xs))], p1, title="t")
    line_plot([("s", xs, np.sin(xs))], p2, title="t")
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_drops_non_finite_points(tmp_path):
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, np.nan, 4.0, 9.0])
    path = render(tmp_path, [("s", xs, ys)])
    root = ET.parse(path).getroot()
    pts = root.find(f"{SVG_NS}polyline").attrib["points"].split()
    assert len(pts) == 3


def test_plot_escapes_markup_in_labels(tmp_path):
    xs = np.array([0.0, 1.0])
    path = render(tmp_path, [("a<b&c", xs, xs)], title="x < y")
    text = path.read_text()
    assert "a<b" not in text
    assert "a&lt;b&amp;c" in text
    root = ET.parse(path).getroot()  # still parses
    assert root is not None


def test_plot_handles_constant_series(tmp_path):
    xs = np.array([0.0, 1.0, 2.0])
    path = render(tmp_path, [("flat", xs, np.full(3, 7.0))])
    assert ET.parse(path).getroot() is not None


def test_plot_input_validation(tmp_path):
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError):
        line_plot([], path)
    with pytest.raises(ValueError):
        line_plot([("s", [0.0, 1.0], [0.0])], path)
    with pytest.raises(ValueError):
        line_plot([("s", [0.0], [0.0])], path)
    with pytest.raises(ValueError, match="finite"):
        line_plot([("s", [0.0, 1.0, 2.0], [np.nan, np.nan, 1.0])], path)


BIG = np.finfo(np.float64).max


@pytest.mark.parametrize("xs,ys", [
    ([0.0, 1.0, 2.0], [1e17, 1e17, 1e17]),    # flat past the unit step
    ([0.0, 1.0], [-1e308, 1e308]),            # span past the float range
    ([0.0, 1.0], [-BIG, BIG]),
    ([0.0, 1.0], [BIG, BIG]),
    ([0.0, 1.0], [0.0, 5e-324]),              # span below the normal range
    ([1e17, 1e17], [0.0, 1.0]),
    ([-BIG, BIG], [0.0, 1.0]),
])
def test_plot_handles_ranges_at_the_ends_of_the_float_range(tmp_path, xs, ys):
    path = render(tmp_path, [("s", np.array(xs), np.array(ys))])
    pts = ET.parse(path).getroot().find(f"{SVG_NS}polyline").attrib["points"]
    coords = np.array([p.split(",") for p in pts.split()], dtype=np.float64)
    assert np.isfinite(coords).all()
    # the padding past the largest float holds no tick: its label would
    # read inf
    labels = [t.text for t in ET.parse(path).getroot().iter(f"{SVG_NS}text")]
    assert all(np.isfinite(float(v)) for v in labels if v != "s")


def test_labels_are_escaped_as_xml_sax_saxutils_escapes_them():
    from xml.sax.saxutils import escape

    from cycleflow.svgplot import _escape
    for text in ("a<b&c", "&lt;>&amp;", "x > y >= z", "", "plain"):
        assert _escape(text) == escape(text)
