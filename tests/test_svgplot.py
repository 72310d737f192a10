"""The self-contained SVG renderer: well-formed, deterministic, robust."""

import math
import os
import re
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


_BIG = sys.float_info.max


@pytest.mark.parametrize(
    "xs, xlog",
    [((_BIG,), False), ((-_BIG,), False), ((_BIG / 2.0, _BIG), False), ((0.0, _BIG), False),
     ((-_BIG, _BIG), False), ((_BIG,), True), ((math.ulp(0.0), 1e200), True)],
    ids=["max", "-max", "half-to-max", "zero-to-max", "-max-to-max", "log-max", "log-min-to-1e200"],
)
def test_axis_at_the_largest_float_stays_finite(tmp_path, xs, xlog):
    """Padding a span that reaches the largest float stops at it, where it
    once overflowed to inf and the tick loop raised OverflowError; a span
    wider than the largest float is measured in halves; a log span padded
    below the smallest float once gave log10(0)."""
    data = _render(tmp_path, "big.svg", [Series(xs, (0.5,) * len(xs), "s")], xlog=xlog)
    assert b"inf" not in data and b"nan" not in data
    labels = _x_tick_labels(data)
    assert len(labels) >= 2 and all(len(label) <= 25 for label in labels)
    root, ns = ET.fromstring(data), "{http://www.w3.org/2000/svg}"
    px = [float(c.get("cx")) for c in root.iter(ns + "circle")]
    px += [float(p.split(",")[0]) for line in root.iter(ns + "polyline") for p in line.get("points").split()]
    assert px and all(74.0 <= v <= 642.0 for v in px)  # inside the frame


@pytest.mark.parametrize("x", [1e30, 1e300, _BIG, 1e-30, 12345.678])
def test_tick_labels_tell_the_ticks_apart(tmp_path, x):
    """A narrow axis far from zero once read '10e29, 10e29, 1e30, 1e30, 1e30':
    its labels take the digits they need, and a mantissa never reads 10."""
    labels = _x_tick_labels(_render(tmp_path, "far.svg", [Series((x,), (0.5,), "dot")]))
    assert len(labels) >= 2
    assert len(set(labels)) == len(labels), labels
    assert not any(re.match(r"-?10(\.0*)?e", label) for label in labels), labels
    # the labels read back as numbers, in the ticks' order
    values = [float(label) for label in labels]
    assert values == sorted(values)
