"""Byte-identity of the reports: every suite and every benchmarked fault.

Each digest is the sha256 of a report's JSON (keys sorted, ``duration_ms``
removed) at default bounds and seed 0.  They were computed with the kernel
that re-sorted its accumulator after every term and factor, before
substitution, composition and ``D`` were changed to sort once per result, so a
kernel change that alters any row, status or printed counterexample fails
here.  A deliberate change to a report must update its digest and say why.
The same reports at seeds 7 and 11 are pinned in the output format of
``tools/report_digests.py``, so that other random instances than seed 0's are
held byte-identical too.
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


# ``python3 tools/report_digests.py --seeds 7 11``: suite mode seed fault sha256
OTHER_SEED_DIGESTS = """
bracket-laws rational 7 - 9c0f75eb63a202dc29e3125e667b9dc94f75efbc88cb9d0bc610e2e0b8662386
bracket-laws natural 7 - b90b5e1976ea9e3798c0dada41babcb38886a68c1ca122f9121cb7de113d9c5c
bundle rational 7 - e3cbb9758e6f71eab443e830a4c139aafba88cd815c17e96417aaef2cee7f6c9
bundle natural 7 - 7fcc820aebec496af8981e045f44e028058542c98b29ef37b365efa208e08dda
cdc-axioms rational 7 - 14f6331545fce89b8d501e7f54dfce59b8a93a43150a2be058f15583110275d3
cdc-axioms natural 7 - 1681a613cf8d75c62d1b4d5afd8c6431c2d3d3705e5e78155e259cf23d3b77c6
cds rational 7 - 37d1e2fb7215c0b3082a7276ca8cc8b9f8e2870f34dc1452a1bea19fb963e8d7
cds natural 7 - 9e7750c1d065bdd52bf86e5aef0dd8583ed61a7bdfa12f3ba21987cdb09d4533
derived-differential rational 7 - 7d66f81b852d98e2579c111780a4c57838d9445dab22724ef53c62a96122390f
derived-differential natural 7 - 0a3dc999fa67afdbd21fd30edaff0d2990b438dca0a133183e59bafc84784e5d
diffobj rational 7 - 6511766a90f1dc57e1946f8914b29691cd675ac85659cd45040c9f5577a85bda
diffobj natural 7 - 77534cd29980f7b9227bfb4f157e6523021bbd47790ce3564f10ab03c2006208
fibration rational 7 - be118fa8bab4c57070d3aab4eda62f00da4e468e5947b5dc4764427bf3d20d67
fibration natural 7 - d1d6890785d4f2e06410b5bd07064376330e17d981b496be7f32e30fa6728f8d
interchange rational 7 - 1793c91fec51d695a53fd5f946389f6af810c6cfbe349d94510a8260a7b86a70
interchange natural 7 - 23e0ba1f38e5253479e838c9156285f393fbcbc2cccbacf7fb466a2b2f56f03a
linearity rational 7 - 1fb750cc4d5c8e614f8c3638e69061e83dc4868e281f3af1b9dbd96bb414392a
linearity natural 7 - fbb19ae822ad205490c7d6a10f0cef5da87e69451ef43f0795a1ffd5d9986e07
monad-laws rational 7 - 51616d6b3b8e21ac513724c2b34f10a3b4c122c8763e1a8592864cd99b2b99ac
monad-laws natural 7 - 2591d79675e3388aa6bbb0a897292970385cf0a32f70c39365ccfa3867670a42
numeric-consistency rational 7 - ec8e4be350af9a26ead751658c4def09cd1e87006264cb8aa96d7ac28b45b090
numeric-consistency natural 7 - 8dbee62f809dc6d860909d3662fd77b3245b6fce540e5138a2a3a6800da61869
tangent-axioms rational 7 - 477fa623c96aed4b98fa21822122968e73a3a3d54611018247aeb38e0c66e734
tangent-axioms natural 7 - 352294ce78f586fe23650cad51e1b0b83da85a5452735d0fd776e81390f9a2e2
tangent-axioms rational 7 identity-flip ea2bdf82f661d24bb7cf35d5f59c8fd9ad677d0ec604356315dec5ea703a1702
tangent-axioms natural 7 identity-flip 55215c62df9ab2295ee31dcb587bcd2ccdb62397fda301b539cce59362cb83a5
tangent-axioms rational 7 dropped-zero-block 782ecff0ad4355e66b026fd4096da1a539f7f1fd2772a70bcce8c8e8cd09797c
tangent-axioms natural 7 dropped-zero-block 6859ecd3f9cacf34ca63cebae202c1bc6470749bc76c51a1e704602065d024d6
bundle rational 7 corrupted-lambda 9183a66970ca7f00593273750f515c400154ec63ee9e0288a6e47cbc7a4fbc20
bundle natural 7 corrupted-lambda 6634e3caf124e272a3463ef2e6d5a9c6827efe6106af92b91eb9401fbe550992
bracket-laws rational 7 corrupted-lambda 921bc018fcb6bb06b77654db58e0de5e9614c93dd8e8d62de36b163bb95628d8
bracket-laws natural 7 corrupted-lambda 43fa8f043acc438ae728220decf0c94ff96fbe55204dcb4b5adbb19307155b54
bracket-laws rational 11 - 2d6a59131567cc69db670ad9bc3b62583710a35ba48b2b150c5fe1c73be17433
bracket-laws natural 11 - edfe88a9837edbb305ada70e4013ef7c49f1c47ca5bf2a79cdab7de7c7fd1c45
bundle rational 11 - 8f4ded948fc3ca9e89e0967bb54f8a7b10377b5b0964b798c061288028d05b26
bundle natural 11 - 723dba80d36c6994c4d8696e1d56da96f9932682a62a03c46109100414419b58
cdc-axioms rational 11 - 490196401aa6e9b76b9f726db86bbfa2889d79f8ac7c368268a2f492214d9d2c
cdc-axioms natural 11 - 4abe5e15d4f510d2f29b8659b79e3ffcc7cc6bcf0ddc3643964f4d39dfd8295f
cds rational 11 - 4534c41c5431aaf6e3555261e0e13aa708c9f8f2013b68bb8c4643a6b0dacc8c
cds natural 11 - 6a93a0479e4e46ec8b10ca4ff3efc50f479570ac23713d6c45c41c0c7efe98b4
derived-differential rational 11 - 5f322049a7b667f684e00418a480df862089b91b1b142b5353c7d9e1146be737
derived-differential natural 11 - 1eec13408aa11a1792a6f4fe70dfcddc308567c7256f2c03368495e5f823b5d2
diffobj rational 11 - d54ae60c04729c46911ee3b6a558957a871250e4ad680ba59f7ee299b7bfc044
diffobj natural 11 - 82a25e291f7767330f810d582f9f4a9b284eac64b145c61befb703a06fab32c4
fibration rational 11 - e5fe860c2c8916e33b8496e0914be583e5f90688aab9c88fc42850611d2fa0a4
fibration natural 11 - 0ac7d6b9c15bb26e0f11e79116863fa6fb19aff79f2d80eb234eb66e4137ef53
interchange rational 11 - cca7b8d068268589aedc9d9700214caae1ae2371246cf3c115356a1497ecf2b4
interchange natural 11 - 33cc0aa6595077deca9efacde429a1d81d4096eae7e71e731693ea5c0dfc2487
linearity rational 11 - 7c21ac3557d52459517c0dc6019de4f42611236ab21eb3174a5309fa746687a3
linearity natural 11 - 1172f55c93b63a9b6957804d9d50a0228378340bd73fa459a8a758e1076eab0b
monad-laws rational 11 - 4bacf5f0babc551305f1e3a0c42dd96f7520aa6fa259cb4fa5222f021bcc6e25
monad-laws natural 11 - 6a39aa25f2861d1fbc1db9bcdf7471f7d47a3687a53c2dc297bb595d135722aa
numeric-consistency rational 11 - 6403e52230903075b02d702c29c72bab0b4b67d25dc0e2205f0da97d94f72ce1
numeric-consistency natural 11 - f11a731cd2229198ce8cd856328d5a11b50f90901315e2c55bcd100a653df043
tangent-axioms rational 11 - d52f4a3c2585dc537d6191d1bedde032e24843b721584595a63cebf616e0e7d4
tangent-axioms natural 11 - 207a2b253f770b8fe3a1832972b7ae917fef14d741ecfb0703b0be46076c3900
tangent-axioms rational 11 identity-flip 645aadb1faa566b53c7d1163c408051b56e87ff77346bb8dc2bd1cd87d8a11ac
tangent-axioms natural 11 identity-flip 1bb6947c58fc7666b7b9152f282957d69614a685ded4b60744a2590d5bd39896
tangent-axioms rational 11 dropped-zero-block f333d59dbd0f72ce42d3fd1f58e1cce9af8b67758325d54ad7d39f6af3654c99
tangent-axioms natural 11 dropped-zero-block 85b46a72084d32be572945609928e971ffa8244482ed2f923d0e3d54c0e6a5bc
bundle rational 11 corrupted-lambda 5eeb73078af30c2e3455fecb8f2dfe788e51d87a14ac7cc62856ecb01190351b
bundle natural 11 corrupted-lambda 490e57a0bfdd43b75f16c2855e5b58e21ea229de0e7340a39f4159aea485f5ba
bracket-laws rational 11 corrupted-lambda d5b8ab37f3fd840895a5aad1e1e21fcce527b080d015b1c6ab0d3075de9c2f85
bracket-laws natural 11 corrupted-lambda a7271e0ec96cf4628902822866a1352ef498888a9d07fccf7d5120d3135b8454
"""
OTHER_SEED_RUNS = {
    (suite, mode, int(seed), fault): sha
    for suite, mode, seed, fault, sha in map(str.split, OTHER_SEED_DIGESTS.strip().splitlines())
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


@pytest.mark.parametrize("suite, mode, seed, fault", sorted(OTHER_SEED_RUNS))
def test_report_at_another_seed_is_unchanged(suite, mode, seed, fault):
    report = run_suite(suite, mode=mode, seed=seed, fault=None if fault == "-" else fault)
    assert digest(report) == OTHER_SEED_RUNS[suite, mode, seed, fault]
