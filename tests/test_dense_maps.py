"""The printed T f and D(f;g) of eight dense maps, pinned by digest.

The golden suite digests cover only small maps.  These are the shapes the
dense benchmark draws at seed 0, written out as fixed texts: a power or a
product of affine factors, dense in every monomial up to its degree (231 to
1,820 terms), and g : 1 -> 2 affine.  The digests were taken before the
kernel built D without sorting, substituted c * x_i by scaling, and printed
each power once, so any change to a term, its order or its printing shows.
"""

import hashlib

import pytest

from tancat.cdc import cdc_D, cdc_T
from tancat.parser import parse_polymap
from tancat.poly import polymap_compose, polymap_to_str

# (variables, mode, f, g, terms of f, sha256 of T f printed, sha256 of D(f;g) printed)
DENSE = (
    (2, "rational", "(-2*x0+1*x1-1)^20", "(2*x0-2);(2*x0-4)", 231,
     "05544108f096b84fbdb3c62ac824fe00310e6c78cb68804b76a7bf67a1d501e2",
     "ff99bace2bdaed9290560976e3c5148a0b884e5ebb3e76f644baf314620daa97"),
    (3, "natural", "(4*x0+3*x1+4*x2+2)^5*(1*x0+1*x1+1*x2+1)^5", "(4*x0+2);(2*x0+2)", 286,
     "7d78bfa87f3d341f505cd271ce7a24009a8f3800c41415b8f7c99277c96e1d23",
     "a1f34b202b6b90c68161e46fa1240510b74b486ea8a7e8753ff3bee174a38f16"),
    (4, "rational", "(-2*x0+3*x1-2*x2-1*x3-1/2)^8", "(2*x0-1);(4*x0-4)", 495,
     "b3fe59b8097b891fbc27b4148ba8a9df0be3ae2642cc113e7786abd49837c5e3",
     "3581a591518ae2b2b49251b2d31c8b9411a0fc61baf0fdaf23b58a859ce5e814"),
    (3, "natural", "(2*x0+1*x1+1*x2+3)^8*(1*x0+4*x1+1*x2+1)^7", "(2*x0+1);(4*x0+3)", 816,
     "b42653378c5f2784351a9f143238c1e62ddfbf078f9179e5e1122dfbe750242e",
     "e86ff6e970f8da4390d0f92d73329d6f66a870e2497f5216fe0cefb3588b96ef"),
    (2, "rational", "(-2*x0+2*x1-2)^40", "(-2*x0-4);(3*x0+3)", 861,
     "3daa7b5c8d847f33b0a8c2d97512c8d002015793fcede84aa41cc3c74a239739",
     "317966b869c66194d50933d67816859ec0ae1e5a8b1cd9f805e9e6a62bcd8f9f"),
    (4, "natural", "(4*x0+3*x1+3*x2+1*x3+1)^5*(1*x0+2*x1+1*x2+3*x3+2)^5", "(1*x0+1);(4*x0+4)", 1001,
     "0dc9144ff32281b14d7f6bee43c7f7b9d5bba436abf9ad0518db90ae62d8289f",
     "5a415d1a3dab27cb789c0ce85457626454cba98fc665ff9254d426452fe4d24b"),
    (3, "rational", "(4*x0+2*x1+2*x2-3)^20", "(-4*x0+2);(3/2*x0-3/2)", 1771,
     "795f692cbd906a76c6582fd7af3db13b71d0c602c4e5c0e474e8d7eeb828258f",
     "4e08776591332c77cf7b6d2ab4e6aeb5b0e5029e1acc81e3a6f45c39e72629c8"),
    (4, "natural", "(2*x0+2*x1+3*x2+3*x3+2)^6*(2*x0+3*x1+1*x2+1*x3+4)^6", "(2*x0+4);(4*x0+2)", 1820,
     "1d2af8d14f690a8806be2453f9608bd84f3e3b480159b7d46d691f33eb67431f",
     "9c793c39500f7844f9e3bc629f93b53c0842408a28495cc50437eb0e1c11d335"),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n, mode, f_text, g_text, size, t_digest, dfg_digest", DENSE,
                         ids=[f"n{row[0]}-{row[4]}-terms" for row in DENSE])
def test_dense_tangent_and_chain_rule_print_as_pinned(n, mode, f_text, g_text, size, t_digest, dfg_digest):
    f = parse_polymap(f_text, n, mode)
    g = parse_polymap(g_text, 1, mode)
    assert len(f.components[0].terms) == size
    t = cdc_T(f)
    assert sha256(polymap_to_str(t)) == t_digest
    dfg = cdc_D(polymap_compose(f, g))
    assert sha256(polymap_to_str(dfg)) == dfg_digest
    assert dfg == polymap_compose(t, cdc_D(g))
