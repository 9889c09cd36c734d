"""Golden digests of stored library bytes.

Characterisation and synthesis must never change a stored component or
library blob without a ``model_version`` bump: the store serves those
blobs to every later run.  The SHA-256 of every component's stored
JSON payload (every registered family at exhaustive and sampled
widths) and of the ``library`` blob of the sobel-scale plan are pinned
here.

Regenerate the pins (only alongside a deliberate model change) with::

    PYTHONPATH=src python tests/library/test_library_digest.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.library.component import FAMILY_REGISTRY
from repro.library.generation import scaled_plan
from repro.library.pipeline import (
    COMPONENT_KIND,
    _run_chunk,
    build_library,
    component_key,
)
from repro.store import ArtifactStore

#: ``(family, width, params)`` of the pinned components: every
#: registered family at exhaustive widths 8 and 10 and sampled widths
#: 12 and 16 (the recursive multiplier needs power-of-two widths).
_EXHAUSTIVE_WIDTHS = (8, 10)
_SAMPLED_WIDTHS = (12, 16)


def _specs_at(width: int):
    half = width // 2
    specs = [
        ("ExactAdder", width, {}),
        ("TruncatedAdder", width, {"trunc_bits": 3, "fill": "zero"}),
        ("TruncatedAdder", width, {"trunc_bits": 2, "fill": "half"}),
        ("TruncatedAdder", width, {"trunc_bits": 4, "fill": "copy"}),
        ("LowerOrAdder", width, {"or_bits": 3}),
        ("AlmostCorrectAdder", width, {"window": 4}),
        ("GeArAdder", width, {"resultant": 2, "previous": 2}),
        ("QuAdAdder", width, {
            "blocks": [3, 2, width - 5], "predictions": [0, 1, 2],
        }),
        ("ExactSubtractor", width, {}),
        ("TruncatedSubtractor", width, {"trunc_bits": 3, "fill": "zero"}),
        ("TruncatedSubtractor", width, {"trunc_bits": 2, "fill": "copy"}),
        ("BlockSubtractor", width, {
            "blocks": [4, 2, width - 6], "predictions": [0, 2, 3],
        }),
        ("ExactMultiplier", width, {}),
        ("MaskedMultiplier", width, {
            "row_masks": [(0xA5A5 >> i) & ((1 << width) - 1)
                          for i in range(width)],
        }),
        ("BrokenArrayMultiplier", width, {"vbl": width - 2, "hbl": 2}),
        ("PerforatedMultiplier", width, {"omitted_rows": [0, 3]}),
        ("TruncatedMultiplier", width, {"trunc_a": 2, "trunc_b": 3}),
        ("MitchellMultiplier", width, {"frac_bits": width - 2}),
        ("DrumMultiplier", width, {"k": 4}),
    ]
    if width & (width - 1) == 0:
        specs.append(
            ("RecursiveApproxMultiplier", width,
             {"approx_leaves": [0, 1, half * half - 1]})
        )
    return specs


def golden_specs():
    specs = []
    for width in _EXHAUSTIVE_WIDTHS + _SAMPLED_WIDTHS:
        specs += _specs_at(width)
    return specs


def _blob_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def component_digests(root) -> dict:
    """``name -> sha256`` of each golden component's stored blob."""
    store = ArtifactStore(root)
    specs = golden_specs()
    sample_size = 1 << 15
    _, _, hits, misses = _run_chunk((store, sample_size), (0, specs))
    assert (hits, misses) == (0, len(specs))
    blobs = {ref.key: ref.path for ref in store.entries(COMPONENT_KIND)}
    digests = {}
    for family, width, params in specs:
        circuit = FAMILY_REGISTRY[family](width, **params)
        key = component_key(circuit, sample_size)
        digests[circuit.name] = _blob_digest(blobs[key])
    return digests


def library_digest(root) -> str:
    """sha256 of the stored ``library`` blob of ``scaled_plan(0.005)``."""
    store = ArtifactStore(root)
    library = build_library(
        scaled_plan(0.005, seed=0), store=store, record_run=False
    ).library
    return _blob_digest(store.put("library", "golden", library).path)


GOLDEN_COMPONENTS = {
    "add10_aca_w4": (
        "45b033e3435f7fc006d8cffeed20011fdfb4d33fcb38df31fcbb12eb7887b29a"
    ),
    "add10_exact": (
        "317a0a0572bfd52dbdae391d10e007d1e2786e2f76eadb240663bf51955b1129"
    ),
    "add10_gear_r2p2": (
        "d55d10a090e0ed8b63ae11a728650e6e7f5fa7c429933663cba46b218728a959"
    ),
    "add10_loa_l3": (
        "5b7ff838b0b4bcedfa09872389da30d11173dcb34da5d5edcaba78a47de7541b"
    ),
    "add10_quad_3p0-2p1-5p2": (
        "f2c9bb4ba59ef90b22127cc8e7b229181b92600d4f206cf4d75c015d077a8437"
    ),
    "add10_tra_t2_half": (
        "3b68f0e4c35fb180a950496873caac301c3d470a25f4d06733ad72ddaaaa1f62"
    ),
    "add10_tra_t3_zero": (
        "d5bcc582f3648c52c9027c7efa1609c98d65074aeab23ac073ba0d4be49c1963"
    ),
    "add10_tra_t4_copy": (
        "dbe45c11c44857da288ba71be24797efe10564db9e295e266ab171ef36319326"
    ),
    "add12_aca_w4": (
        "32cb04bce06c1da50fcba613b073f008d199b3dfca090a564fa66571346f76fe"
    ),
    "add12_exact": (
        "8a5e6f97153fba0af2fe50930ffb757ccc5388ab802818f61e6a750517edd646"
    ),
    "add12_gear_r2p2": (
        "8ec11a2961863e998e3c0330b3af166ca3d0705dd9e85e4e084065313d0bd5a6"
    ),
    "add12_loa_l3": (
        "ff70b72874928d2937e74b0cf7374a5c5fc8065ca003da589aa1de0eaee02cc0"
    ),
    "add12_quad_3p0-2p1-7p2": (
        "c4e1f557c088f76136e3e8c9538f0dc27daa5d63d1560404c536b1b88399d9cb"
    ),
    "add12_tra_t2_half": (
        "eab71ca40fdbabd943b8e8b643daf03a2151b1222e37306ddab50a4879c84e9b"
    ),
    "add12_tra_t3_zero": (
        "cedba23717176a1b2a07e7647b6024ce5d80e7d014c94e8ed6fbbdeabf007c34"
    ),
    "add12_tra_t4_copy": (
        "bd7670bf4a71c7c90e661ad9373b851f8952e53a339822d82e52e57fb607e817"
    ),
    "add16_aca_w4": (
        "b107650429a033443c47f741024c35a7eebe230061d295387c364b074db9834a"
    ),
    "add16_exact": (
        "812b8bc4e4a8ab8d89c76728230155b0fd767f8599e6c09c862fffceb1aaf20c"
    ),
    "add16_gear_r2p2": (
        "eab2c2425bed469ddb81e7b3f18162999cc556474b0ed8e510d55fe7c26d1e6d"
    ),
    "add16_loa_l3": (
        "7ca465e2528635c587aa9ce727bdd1648f33386bde1b9a3c8c19b101a54e64aa"
    ),
    "add16_quad_3p0-2p1-11p2": (
        "13c23b27f8eb57cbf8c0e8d8176eecbe36675095d810a70815f26872360f76e7"
    ),
    "add16_tra_t2_half": (
        "31b78eaf0a1ccb0a1ad6593b6db6f30f268e0722d147afb20525d81b394666c7"
    ),
    "add16_tra_t3_zero": (
        "278e010a44cd4e0446f970e88aacff0992b4ee16b2b106eaa4a51f5acdfb9efe"
    ),
    "add16_tra_t4_copy": (
        "02c30a827a630733f22b76b0c305c0bb0770f4c1cde5730a3362e506a2249e42"
    ),
    "add8_aca_w4": (
        "b2b946833cf62bdedc50d408888a1497b7ab470abf90db14fdb95941958bb6c5"
    ),
    "add8_exact": (
        "02cc17516827bb59d4f4f6e2ea5f5ca36da372ab2293a2777ed198d1aa95bb1c"
    ),
    "add8_gear_r2p2": (
        "617ac184f0beab3d6466142a6b88dd11e0a6229e565af9eae800b5eabddf1d2d"
    ),
    "add8_loa_l3": (
        "3fd151cf80ad988fdb7bc312f260aeec4dc040b7b266cb806cec48e131384433"
    ),
    "add8_quad_3p0-2p1-3p2": (
        "b8296914ed38ea7582a748471159b916cd96f005dedec69079cf4297ac37d93f"
    ),
    "add8_tra_t2_half": (
        "dd5637a5242480635d897aacba04fceaf35904d695c5d4ebcd05b3bc8909dd0a"
    ),
    "add8_tra_t3_zero": (
        "b51021c735e08efdc601d3fe13b52ff8b3fc8d9f34dc3244df489236980f3360"
    ),
    "add8_tra_t4_copy": (
        "9bab09d9ce699527ed03dd3b22070ead2607ba2e74a7e551ae1aebeab22593d4"
    ),
    "mul10_bam_v8h2": (
        "1da67dc21838563d04cb33a9fa2d4551e2d0eabacf36359e7640614abb206527"
    ),
    "mul10_drum_k4": (
        "7eee8ca646e4401c6f9d6b3baca1e836f0e86e281bb9c9c8713357c943bb0b4c"
    ),
    "mul10_exact": (
        "60c41b49d099b2a82b0c8f3ca457bd919c858229df81461cd73efc969b6d42b5"
    ),
    "mul10_mask_1a5-2d2-169-b4-25a-12d-296-14b-a5-52": (
        "282907a7354d6e773884ab6ec1feaef97f626a5fa8b46e8ab179455340f452f1"
    ),
    "mul10_mitchell_f8": (
        "b07894cedd4dcb23764a8efb326db570162d1739c8ef245339a3e829b7a92753"
    ),
    "mul10_perf_03": (
        "6d228324f0b7bec1dbcb885fac955707d89db5339a08912ad3e5e883b21008d8"
    ),
    "mul10_trunc_a2b3": (
        "f913fa0c7fc600b5d47f477cf6c0aebde3039ea49561555f867df07d4bbfabc7"
    ),
    "mul12_bam_v10h2": (
        "b062df47d535508d5ec1efa257ffc96579cae77993ac67650316e75d4e4859af"
    ),
    "mul12_drum_k4": (
        "9d76ed3002e954cb88320ce28f0dad846e97e53e0fede098f1bec973f62c6109"
    ),
    "mul12_exact": (
        "d8091882adb1ea23ad39097f676fb7dcce539fe116aa22416add3e6178093952"
    ),
    "mul12_mask_5a5-2d2-969-4b4-a5a-52d-296-14b-a5-52-29-14": (
        "323e4c257f98ac3754a4da782e493688f5740d5d9315539d0d97ae8764709d8f"
    ),
    "mul12_mitchell_f10": (
        "46be874d7ca6fec0c76d05200dab8c0c620ecda64e257d5f4a07107df0483594"
    ),
    "mul12_perf_03": (
        "82ec2a6d5cdabe6f9e8083fcfb1739274d9c7dce930b8083328538cd86282fee"
    ),
    "mul12_trunc_a2b3": (
        "f803cc82d6e05936a3de227c1935dcaacbd507f19b5f40466ae0bf69762e05c2"
    ),
    "mul16_bam_v14h2": (
        "b2dca862994ea55daa8726dd0d618a8bae7932c8c1d491c4a6f16ae24b7322d1"
    ),
    "mul16_drum_k4": (
        "bbb7dc24b384c9c06238cba199d433be6474401dff97b8adf72960ccce436c34"
    ),
    "mul16_exact": (
        "2c43f50b1811cc4a99cd3658db11ebbaec455be64e7ba6e57ce261d506e44b7b"
    ),
    "mul16_mask_a5a5-52d2-2969-14b4-a5a-52d-296-14b-a5-52-29-14-a-5-2-1": (
        "0bd57b32bccde232823eadce72063227da996d7c201de43dbc638b6794f39bbc"
    ),
    "mul16_mitchell_f14": (
        "29d8bb06727e7c83883d076a8764bffd18a5a37eebfa82f2fc8a9ec29ff49e7b"
    ),
    "mul16_perf_03": (
        "9afdc025240020eb2da2cf0dffc32898576905ada217fcaee6efea57bd3a3a9a"
    ),
    "mul16_rec2x2_8000000000000003": (
        "c9fc57867296089654e7664ada1dbd999163c3895a459943c33d0b84bf822342"
    ),
    "mul16_trunc_a2b3": (
        "ba4470a650ddeda4ee18f3e44d2e1d9041782f38d59e39ad17222f1ac32c4438"
    ),
    "mul8_bam_v6h2": (
        "5cf3db7fd4de49973d804679827774af1d7616d00080ced7523492e48d3b9019"
    ),
    "mul8_drum_k4": (
        "54702929bc6bdd8d898f3a5717410325bfe671a78d8b80006e589f0a1fe8b261"
    ),
    "mul8_exact": (
        "b3fce6862361f557117a8131e86308d49bdc8b9b500bdfb4db71a6a0e47255f0"
    ),
    "mul8_mask_a5-d2-69-b4-5a-2d-96-4b": (
        "3ead637ca37180231b84d30c68e831c16a46f5d532ffeecc309250b850130e60"
    ),
    "mul8_mitchell_f6": (
        "c3c8fa851e899c472f25825d5aa966babd8b45f4ef5614da7dabe898ef122091"
    ),
    "mul8_perf_03": (
        "a0fcdc0a306a6a2ec26a6fbc1b0389b6a3f6be237156440466d288d882db56d9"
    ),
    "mul8_rec2x2_8003": (
        "562c1edeb6f7b28b668474dcb33efd23fb72c613f0b2006ba31cc434b50e1bb2"
    ),
    "mul8_trunc_a2b3": (
        "34b3e5d0ba48e4caeb6c96be98317983ba00969e83ff84f5b278b82aba334fc0"
    ),
    "sub10_blk_4p0-2p2-4p3": (
        "cada4eef02d46855e60278c11658973b3bc6eb007451d9e6cd2343eec7215989"
    ),
    "sub10_exact": (
        "f3d45e9fdf17aaba9cbedf7c0e3917b3fc29d34e9bccd24650e3147e7a4463e6"
    ),
    "sub10_tra_t2_copy": (
        "cbacd1c8d0ff9600351da34cc19a99a4f32d426a9476e6e7b279f9bcd82259cf"
    ),
    "sub10_tra_t3_zero": (
        "d6966d239f721be2addc33619228fffd48162d2e0cfb039b114c27286e7f0ddc"
    ),
    "sub12_blk_4p0-2p2-6p3": (
        "d730a9231a6d29788c5a9b673e20d96f216ab966ceb971d6c2c0539ba7c261e3"
    ),
    "sub12_exact": (
        "522f485f137212f9ea89b0a94b625c604b0d326ad551fb3584bd8c28659c664c"
    ),
    "sub12_tra_t2_copy": (
        "badddaff908cc7374da4fcee924826c45226328b3c264767ea2de5345537cab6"
    ),
    "sub12_tra_t3_zero": (
        "947a976d9dc4bc81b780a925db103f52e1cc928fb37447819ffd8784db87afb4"
    ),
    "sub16_blk_4p0-2p2-10p3": (
        "79d815263cfea5872bdf597004b6212e0de6e585158b38224c341b55bee63fd9"
    ),
    "sub16_exact": (
        "cf474fcbc961f6159bfdbc032c5a056943206d567eb469a8d0c7119b0751052a"
    ),
    "sub16_tra_t2_copy": (
        "13ca11c77ac261eff5789f887625522e5807bed8709d1fdf08af2332cc91d22b"
    ),
    "sub16_tra_t3_zero": (
        "139ee2087c38fdf07a60d3c06a4405e589de45cc11f49f38a5d39afafd5d2e7f"
    ),
    "sub8_blk_4p0-2p2-2p3": (
        "e85de569187fcaca0a146b45bc201a46d3b9688e9dde987f83369cdcedecbae5"
    ),
    "sub8_exact": (
        "0aa11aef0ccef5d99a4bb51c06eaf4886b25c7878fb320c88a95fd726ccc0b0d"
    ),
    "sub8_tra_t2_copy": (
        "07a2f2a917a5d4af03071c40bc401efa766699cde690a19f906a49507655ac1e"
    ),
    "sub8_tra_t3_zero": (
        "b32decc283665ad3a9cfd6e2b64bf50769b69f3ee12bbe4206d60ddf8d516e22"
    ),
}

GOLDEN_LIBRARY = (
    "9587b75f78f0e95b070b0d86df192102a1ed486b3d72b6f7a5de5ccd3076422b"
)


def test_golden_specs_cover_every_family():
    families = {family for family, _, _ in golden_specs()}
    assert families == set(FAMILY_REGISTRY)
    for family in FAMILY_REGISTRY:
        widths = {w for f, w, _ in golden_specs() if f == family}
        assert widths & set(_EXHAUSTIVE_WIDTHS), family
        assert widths & set(_SAMPLED_WIDTHS), family


def test_component_blobs_match_golden_digests(tmp_path):
    assert component_digests(tmp_path / "store") == GOLDEN_COMPONENTS


def test_library_blob_matches_golden_digest(tmp_path):
    assert library_digest(tmp_path / "store") == GOLDEN_LIBRARY


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(component_digests(Path(tmp) / "c"), width=100)
        print(repr(library_digest(Path(tmp) / "l")))
