"""The self-contained SVG renderer: well-formed, deterministic, robust."""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import rydgate
from rydgate.svgplot import PALETTE, Series, render_plot


def _render(tmp_path, name, series, **kwargs):
    path = tmp_path / name
    defaults = dict(title="t", xlabel="x", ylabel="y")
    defaults.update(kwargs)
    render_plot(path, series, **defaults)
    return path.read_bytes()


def test_render_well_formed_xml(tmp_path):
    xs = tuple(range(1, 11))
    data = _render(
        tmp_path,
        "plot.svg",
        [
            Series(xs, tuple(x * x for x in xs), "rise"),
            Series(xs, tuple(1.0 / x for x in xs), "fall", dashed=True),
        ],
        title="two curves",
        xlabel="n",
        ylabel="value",
    )
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")
    text = data.decode()
    assert "two curves" in text
    assert "rise" in text and "fall" in text
    assert PALETTE[0] in text and PALETTE[1] in text


def test_render_is_byte_deterministic(tmp_path):
    series = [Series((1.0, 2.0, 3.0), (0.3, 0.1, 0.9), "s")]
    first = _render(tmp_path, "a.svg", series)
    second = _render(tmp_path, "b.svg", series)
    assert first == second


def test_log_axes_skip_nonpositive_and_nan(tmp_path):
    series = [
        Series(
            (0.1, 1.0, 10.0, 100.0, 1000.0),
            (1e-3, 0.0, float("nan"), -2.0, 1e2),
            "sparse",
        )
    ]
    data = _render(tmp_path, "log.svg", series, xlog=True, ylog=True)
    ET.fromstring(data)  # still parses with most points dropped


def test_empty_series_still_renders(tmp_path):
    data = _render(tmp_path, "empty.svg", [Series((), (), "nothing")])
    ET.fromstring(data)


def test_single_point_renders_marker(tmp_path):
    data = _render(tmp_path, "point.svg", [Series((3.0,), (0.5,), "dot")])
    root = ET.fromstring(data)
    assert b"circle" in data


def test_title_escaping(tmp_path):
    data = _render(
        tmp_path,
        "esc.svg",
        [Series((1.0, 2.0), (1.0, 2.0), "a<b&c")],
        title='window <"open" & shut>',
    )
    ET.fromstring(data)
    assert b"&lt;" in data and b"&amp;" in data


def _x_tick_labels(data):
    """Labels under the x axis: the monospace texts centred on their tick."""
    return [
        el.text
        for el in ET.fromstring(data).iter("{http://www.w3.org/2000/svg}text")
        if el.get("font-family") == "monospace" and el.get("text-anchor") == "middle"
    ]


@pytest.mark.parametrize("x", [1e16, 1e30, 1e300, -1e300])
def test_one_point_axis_gets_ticks_at_any_size(tmp_path, x):
    # +-0.5 rounds away beside a value above about 1e16
    data = _render(tmp_path, "far.svg", [Series((x,), (0.5,), "dot")])
    assert len(_x_tick_labels(data)) >= 2
    cx = float(ET.fromstring(data).find("{http://www.w3.org/2000/svg}circle").get("cx"))
    assert 74.0 < cx < 642.0


@pytest.mark.parametrize("x", [(1e10, 1.0000000000000002e10), (1e30, 1.0000000000000002e30)])
def test_axis_of_adjacent_floats_gets_ticks(tmp_path, x):
    """Points a few ulps apart once gave a tick step below the rounding of
    the tick values, and the tick loop never ended: run it with a deadline."""
    path = tmp_path / "near.svg"
    code = (
        "import sys\n"
        "from rydgate.svgplot import Series, render_plot\n"
        f"render_plot(sys.argv[1], [Series({x!r}, (0.5, 0.6), 's')], title='t', xlabel='x', ylabel='y')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rydgate.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True, timeout=60)
    assert len(_x_tick_labels(path.read_bytes())) >= 2
