"""Byte-identity of the reports: every suite and every benchmarked fault.

Each digest is the sha256 of a report's JSON (keys sorted, ``duration_ms``
removed) at default bounds and seed 0.  They were computed with the kernel
that re-sorted its accumulator after every term and factor, before
substitution, composition and ``D`` were changed to sort once per result, so a
kernel change that alters any row, status or printed counterexample fails
here.  A deliberate change to a report must update its digest and say why.
"""

import hashlib
import json

import pytest

from tancat.suites import run_suite

SUITE_DIGESTS = {
    ("bracket-laws", "natural"): "1743ebeb28fb11101f913189bc92611557cc4e9c6b52927cf2ad63b1f6af76cb",
    ("bracket-laws", "rational"): "8c17f37b72efb5cc9a01121f89c39953bc628275d9e58fedce140d8bca4f9874",
    ("bundle", "natural"): "17509b17cd15453581ad294c2d3c9cc8779c9948ad784e39ceeee6800440f85f",
    ("bundle", "rational"): "4d8e0317cdf7f03160b7d4c6d12368ec2ee4858563a1bea1b9576e1029f528e4",
    ("cdc-axioms", "natural"): "1ace600b74bded612235c0574c6adaa9fdfc2853e6f69d5306c579f4f3e859e6",
    ("cdc-axioms", "rational"): "bdd257f7e3ee5f55ff5bb32e03f8a7edf926be58c66ad7b39bec2a60e0a9ed83",
    ("cds", "natural"): "2b6981b60a55a7703918fa75234efdae8e209f618ba20d50e40236acdad8fc7e",
    ("cds", "rational"): "31966892d31169241c4315935eeeb3c14fe1670906ba73f31aaeeae0544e915b",
    ("derived-differential", "natural"): "59f8305fef5fe2e353970ebd133f0db8929851b3c68b7dad61933d993e7414e3",
    ("derived-differential", "rational"): "dceebf9c074ceabfce075518d803b87128f5a7f46e04b2f72280f71a9c1bd48f",
    ("diffobj", "natural"): "7519625bf494c183fe2ff2c947f638486913160c4ae85373477248b5f68b4dd3",
    ("diffobj", "rational"): "f29ccf08c54a29ad6daf1149e391f681dbe63b50063129becc95ce50226d5a5f",
    ("fibration", "natural"): "4a49c1beb61aff77f81b55d3cce3261f0961fa3f8203d7235d5144f6aadf1b96",
    ("fibration", "rational"): "a0653af47964615f8608ee953bf7680df769ad50cd2745ef054a8ac239cdc278",
    ("interchange", "natural"): "91b41e639ccb6186b74400474ce6630185b7bdcc74b229c6c41522f0dccafe43",
    ("interchange", "rational"): "dafd39fba0aa6d2e966f41171dfb9fee33b944fa9cde563d792ed2f9a19fecbc",
    ("linearity", "natural"): "f43149509220a716323d3a5f852ce80c7fa6cef9ec334133a4f8da3ab89c1faa",
    ("linearity", "rational"): "c2e53e00e12e7fe89e98e2cccb6bf78ad66640fbb40546ed86e5245f2f1c0c55",
    ("monad-laws", "natural"): "e16d4e4f6c8d0f48816f034cc15147dbb94c1df2cce34f02546d81679179c054",
    ("monad-laws", "rational"): "ca5899c4f1e1ac31ff86f8778c98c3557a04ea07b69c83f2bb59e21a44e408ac",
    ("numeric-consistency", "natural"): "5fe2ffa3317646d369da91d8c68487ebb33f62383da67a29ca8c46c8fdbb336c",
    ("numeric-consistency", "rational"): "83b2a10d7fca879cc53d74ca9ccd9ddd41f56ac18546abdfe36b3036a4bf299c",
    ("tangent-axioms", "natural"): "66dee37503b22ea9b7b163a95b3ed4d9228268ffcf0fbda42fbc3ad9529ecd7a",
    ("tangent-axioms", "rational"): "f332fe57dd92b23d8c1bc7107f358f826ad36fff1effe18cf3f25e71342f9c20",
}

# the (suite, fault) pairs of the benchmark's faults workload
FAULT_DIGESTS = {
    ("bracket-laws", "corrupted-lambda", "natural"): "41498cc322e7e3e302917023cfd7b70256162954b914d4d933838e06ad67728e",
    ("bracket-laws", "corrupted-lambda", "rational"): "b20d87830643e45f99982a94ff41ca0983a71941f8570cb962a49040d9827e39",
    ("bundle", "corrupted-lambda", "natural"): "1e0861dbab4ffeb64f257bab3eea8cf125df44551574e370970187d3f05bcf89",
    ("bundle", "corrupted-lambda", "rational"): "cef400f16825b8f707de52eae4181d50cb2bb3398bf19550791d3425db28f75d",
    ("tangent-axioms", "dropped-zero-block", "natural"): "dbb0922557f4930f970bca4595ec912e1c3c8bd6dbb7d599e61fb185f2fb5c2b",
    ("tangent-axioms", "dropped-zero-block", "rational"): "cedd82ee8fcf1f56986a02e619edb6916dbd713596f1803a68ef36378f2d2247",
    ("tangent-axioms", "identity-flip", "natural"): "a39f03e92f4177ba84d51b78486b73158053c5e150a784c1d2f27fe482810240",
    ("tangent-axioms", "identity-flip", "rational"): "2008c8277f689b21bd23490a8b8cace34b01d4dbc2dd21966c9e9971dc5c2aca",
}


def digest(report):
    data = report.to_dict()
    data.pop("duration_ms")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("suite, mode", sorted(SUITE_DIGESTS))
def test_suite_report_is_unchanged(suite, mode):
    assert digest(run_suite(suite, mode=mode, seed=0)) == SUITE_DIGESTS[suite, mode]


@pytest.mark.parametrize("suite, fault, mode", sorted(FAULT_DIGESTS))
def test_fault_report_is_unchanged(suite, fault, mode):
    assert digest(run_suite(suite, mode=mode, seed=0, fault=fault)) == FAULT_DIGESTS[suite, fault, mode]
