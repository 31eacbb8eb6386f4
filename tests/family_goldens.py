"""Golden homotopy liftings of the ``family`` preset at q = 1.

The closed forms for the named cocycles of ``presets.FAMILY_NAMED``: eta
and chi in every degree through M, etabar and chibar in degrees 2..3.  The
suite checks them with ``verify_lifting``, compares brackets built from
them with the golden table, and reads eta's and chi's as derivation
operators (criterion 7).  Images are written as ``presets._bim`` specs.
"""

from koszulgerst.algfile import parse_cochain
from koszulgerst.lifting import HomotopyLifting
from koszulgerst.presets import FAMILY_NAMED, _bim


def family_psi_eta(kx, M):
    """Lifting of eta = (a 0 0): psi(eps^m_r) = (m - r) eps^m_r, last slot m - 1."""
    maps = {}
    for m in range(1, M + 1):
        images = [_bim(kx, m, [(m - r, "", r, "")] if m != r else 0) for r in range(m + 1)]
        images.append(_bim(kx, m, [(m - 1, "", m + 1, "")] if m != 1 else 0))
        maps[m] = images
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["eta"]), maps)


def family_psi_chi(kx, M):
    """Lifting of chi = (ab 0 0) at q = 1, in closed form."""
    maps = {}
    for m in range(1, M + 1):
        images = []
        for r in range(m):
            spec = []
            if r % 2 == 0:
                spec.append(((-1) ** (m + 1), "a", r + 1, ""))
            if m != r:
                spec.append((m - r, "", r, "b"))
            images.append(_bim(kx, m, spec or 0))
        images.append(_bim(kx, m, 0))  # r = m
        images.append(_bim(kx, m, [(m - 1, "b", m + 1, ""), (m - 1, "", 1, "c")]
                           if m >= 2 else 0))
        maps[m] = images
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["chi"]), maps)


def family_psi_etabar(kx):
    """Lifting of etabar = (a 0 0 0) at q = 1, golden data for degrees 2..3
    (below degree 2 a lifting of a 2-cocycle is zero and holds no images).

    Images of eps^m_r live one homological degree down (in K_{m-1}).
    """
    maps = {
        2: [_bim(kx, 1, [(1, "", 0, "")]), _bim(kx, 1, 0), _bim(kx, 1, 0), _bim(kx, 1, 0)],
        3: [_bim(kx, 2, 0), _bim(kx, 2, [(1, "", 1, "")]), _bim(kx, 2, 0),
            _bim(kx, 2, 0), _bim(kx, 2, [(1, "", 3, "")])],
    }
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["etabar"]), maps)


def family_psi_chibar(kx):
    """Lifting of chibar = (0 0 ab 0) at q = 1, golden data for degrees 2..3."""
    maps = {
        2: [_bim(kx, 1, 0), _bim(kx, 1, 0),
            _bim(kx, 1, [(1, "a", 1, ""), (1, "", 0, "b")]), _bim(kx, 1, 0)],
        3: [_bim(kx, 2, 0), _bim(kx, 2, 0), _bim(kx, 2, [(-1, "a", 1, "")]),
            _bim(kx, 2, [(1, "", 1, "b")]), _bim(kx, 2, 0)],
    }
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["chibar"]), maps)
