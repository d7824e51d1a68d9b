"""The SVG renderers: text returned, no file opened; the heatmap's pinned
bytes, and cells that are NaN or infinite.

The pinned digests are of the per-cell renderer the array pass replaced;
the matrices are built from integer arithmetic and one division, so their
bits do not depend on the platform's libm.
"""

import builtins
import hashlib
import re
import warnings

import numpy as np
import pytest

from kgcavity import svg
from kgcavity.config import DimensionError

_I, _J = np.indices((60, 40))
PINNED = [
    (((_I * 37 + _J * 11) % 101) / 13.0 - 3.5, ("corr <m n>", "n", "m"),
     "35707cf62c02c65d6eacfc254e693985bed14c80cd46cfc22cd171fc08ecff2e"),
    (np.zeros((3, 3)), ("", "", ""),
     "1ae9f8e3b554ae0fe6ad33ef92d455061a9270d10dcaacd6eff5f1cfe1fb51b5"),
    (np.arange(125 * 125).reshape(125, 125) / 7.0 + 2.0, ("ramp & more", "j", "i"),
     "73585b8edb7e83dd5b5ed24e59a9b536f8e4d800c517e62b4928f5ec46335165"),
]


def _render(matrix, labels=("", "", "")) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return svg.heatmap(matrix, *labels)


def _cell_fills(text: str, n_cells: int) -> list[str]:
    """The fills of the matrix cells, in row-major order (the color bar's
    101 rects follow them)."""
    fills = re.findall(r'<rect x="[^"]+" y="[^"]+" width="[^"]+" height="[^"]+" fill="(#[0-9a-f]{6})"/>', text)
    return fills[:n_cells]


@pytest.mark.parametrize("matrix, labels, digest", PINNED)
def test_heatmap_bytes_are_pinned(matrix, labels, digest):
    text = _render(matrix, labels)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cells_are_grey_and_out_of_range(bad):
    # a NaN cell once raised "cannot convert float NaN to integer"
    matrix = np.array([[0.1, bad], [0.3, 0.5]])
    text = _render(matrix)
    fills = _cell_fills(text, 4)
    assert fills[1] == svg._NONFINITE
    # the finite cells keep the colors they have with the bad cell at lo
    ref = _cell_fills(_render(np.array([[0.1, 0.1], [0.3, 0.5]])), 4)
    assert fills[0] == ref[0] and fills[2:] == ref[2:]
    assert ">0.1</text>" in text and ">0.5</text>" in text


def test_matrix_without_finite_cells_is_all_grey():
    text = _render(np.array([[np.nan, np.inf], [np.nan, np.nan]]))
    assert _cell_fills(text, 4) == [svg._NONFINITE] * 4
    assert text.count(">nan</text>") == 2


@pytest.mark.parametrize("matrix", [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros(3),
                                    np.zeros((2, 2, 2)), np.float64(1.0)],
                         ids=["no-rows", "no-columns", "1-D", "3-D", "0-D"])
def test_matrix_that_is_not_a_grid_of_cells_is_a_dimension_error(matrix):
    # refused with the shape named; an empty axis once raised
    # ZeroDivisionError and a 1-D array ValueError
    with pytest.raises(DimensionError, match=re.escape(str(np.shape(matrix)))):
        svg.heatmap(matrix)


@pytest.mark.parametrize("render, args", [
    (svg.line_plot, ([([1.0, 2.0, 3.0], [1.0, 0.1, 0.01], "a")],)),
    (svg.line_plot, ([([np.nan], [1.0], "no finite point")],)),
    (svg.heatmap, ([[0.1, 0.2], [0.3, 0.4]],)),
], ids=["line-plot", "empty-line-plot", "heatmap"])
def test_renderers_return_text_and_open_no_file(tmp_path, monkeypatch, render, args):
    # output.write_run alone writes products: a file a renderer opened would
    # escape its staging, its digest and its rollback
    def refuse(*_args, **_kw):
        raise AssertionError("a renderer opened a file")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(builtins, "open", refuse)
    text = render(*args, title="t")
    assert text.startswith("<svg") and text.endswith(("</svg>\n", "/>\n")), text
    assert list(tmp_path.iterdir()) == []
