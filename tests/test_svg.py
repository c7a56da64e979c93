import re

from anonytope.homology import barcode
from anonytope.svg import render_barcode_svg

from oracles import dataset


def test_h0_labels_on_tied_deaths():
    # {1} joins {2,3} and {4} joins {5} at the same eps 0.21875: the two
    # bars dying there carry weights 2 and 1, not one shared label
    data = dataset([(2.0,), (1.5,), (1.5625,), (0.0,), (0.4375,)])
    bars = barcode(data, dim_cap=1)
    svg = render_barcode_svg(bars, None, None)
    labels = sorted((float(x), int(w)) for x, w in re.findall(
        r'<text x="([\d.]+)" y="[\d.]+" font-size="10">w=(\d+)</text>',
        svg))
    assert [w for _, w in labels] == [1, 1, 2, 2, 5]
    assert len({x for x, _ in labels}) == 4


def test_one_h0_line_per_distinct_row():
    # a duplicate row's bar dies at 0, where it is born, and is not drawn
    data = dataset([(0.0,), (1.0,), (0.0,), (3.0,), (1.0,), (1.0,)])
    bars = barcode(data, dim_cap=2)
    assert sum(b.dim == 0 for b in bars.bars) == 6
    svg = render_barcode_svg(bars, None, None)
    assert svg.count('stroke-width="4"') == 3
    assert sorted(map(int, re.findall(r">w=(\d+)<", svg))) == [1, 3, 6]
