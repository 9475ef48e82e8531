"""The region CSV and the SVG figure are byte-identical to the node-by-node
reference writers of ``support``."""

import numpy as np
import pytest

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.matrixcore import make_view, resolve_partition
from specincl.pseudospec import GridSpec, Region, region_to_csv
from specincl.toeplitz import jordan, laplacian
from specincl.viz import render_svg

from support import (
    assert_band_of,
    reference_pseudospectrum,
    reference_region_to_csv,
    reference_render_svg,
)


def _band_region(grid):
    # a certified band field: NaN off the band (on the default grid),
    # completed at the contour corners
    A = jordan(12)
    view = make_view(A, resolve_partition("uniform:1", A))
    [[report]] = inc.method_reports(view, ["tau"], [0.1], n=3, grid=grid)
    return report.region


def _disc(grid, radius=0.7):
    dist = np.abs(grid.nodes() - 0.2j)
    return Region(grid, dist <= radius, dist, radius)


_GRIDS = {
    "default": lambda: ps.default_grid(jordan(12), pad=0.6, nx=48, ny=48),
    "two-by-two": lambda: GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2),
    "nx-ne-ny": lambda: GridSpec(-1.3, 0.9, -0.8, 1.1, 23, 11),
    "signed-zeros": lambda: GridSpec(-0.0, 1.25, -1.5, -0.0, 9, 14),
    "negative": lambda: GridSpec(-3.7, -0.4, -2.2, -0.1, 17, 19),
}

_REGIONS = {
    "band-nan": _band_region,
    "full-field": lambda g: reference_pseudospectrum(laplacian(6), 0.4, g),
    "disc": _disc,
    "mask-only": lambda g: Region(g, _disc(g).mask),
    "empty": lambda g: Region(g, np.zeros((g.ny, g.nx), dtype=bool)),
    "empty-field": lambda g: Region(g, np.zeros((g.ny, g.nx), dtype=bool),
                                    np.full((g.ny, g.nx), 9.0), 0.1),
}


def _cases():
    for gname in _GRIDS:
        for rname in _REGIONS:
            yield pytest.param(gname, rname, id=f"{gname}-{rname}")


@pytest.mark.parametrize("gname", list(_GRIDS))
def test_pseudospectrum_is_band_of_full_field(gname):
    grid = _GRIDS[gname]()
    assert_band_of(ps.pseudospectrum(laplacian(6), 0.4, grid),
                   _REGIONS["full-field"](grid))


@pytest.mark.parametrize("gname, rname", list(_cases()))
def test_region_csv_matches_reference(tmp_path, gname, rname):
    region = _REGIONS[rname](_GRIDS[gname]())
    region_to_csv(region, tmp_path / "new.csv")
    reference_region_to_csv(region, tmp_path / "ref.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 1 + region.mask.size


@pytest.mark.parametrize("gname, rname", list(_cases()))
def test_svg_matches_reference(gname, rname):
    region = _REGIONS[rname](_GRIDS[gname]())
    for lams in (None, ps.eig(jordan(12) + np.diag(np.arange(12) * 0.05j))):
        new = render_svg(region, lams, title="t", timestamp=False)
        assert new == reference_render_svg(region, lams, title="t",
                                           timestamp=False)


@pytest.mark.parametrize("eigenvalues", [
    [0.3 + 0.1j, -0.0, -1.2 - 0.7j, 5.0],
    np.array([-0.25, 0.0, 0.75]),
    np.array([0.1 - 0.2j, -0.3 + 0.4j], dtype=np.complex64),
    np.zeros((2, 2), dtype=np.complex128),
    [],
], ids=["list", "real", "complex64", "2-d", "none"])
def test_svg_markers_match_reference(eigenvalues):
    region = _disc(_GRIDS["signed-zeros"]())
    new = render_svg(region, eigenvalues, timestamp=False)
    assert new == reference_render_svg(region, eigenvalues, timestamp=False)
    assert new.count('stroke="black"') == np.size(eigenvalues)
