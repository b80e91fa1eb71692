"""Pinned SHA-256 digests of rendered output: any change to a random stream shows here.

The single runs pin ``transcripts_to_json`` plus ``format_event_log`` for
seeds 0-4 of every scenario and variant at n = 4; the Monte Carlo cases pin
``render_json(run_experiment(...))``. The digests were computed before the
batch-last register rewrite and must not move silently: a change that moves
one announces the new stream in CHANGES.md and re-pins it there.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from qpv.adversary import AttackConfig, run_attack
from qpv.analysis import SCENARIOS, ExperimentSpec, render_json, run_experiment
from qpv.protocol import VARIANTS, ProtocolConfig, TrialCore, run_honest, transcripts_to_json
from qpv.spacetime import format_event_log

SEEDS = range(5)
SINGLE_RUN_N = 4
EXPERIMENTS = {"honest": (1, 16), "guess": (1, 16)}
EXPERIMENT_TRIALS = 2000
EXPERIMENT_SEED = 11
# Uniforms 1/4, 1/2 and 3/4: every outcome probability is a multiple of 1/4, so
# these words land on a cumulative boundary, where the summation order decides the pick.
QUARTER_WORDS = (2 ** 30, 2 ** 31, 3 * 2 ** 30)

PINNED = {
    "experiment/guess": "b5e4ee199f2be3288fc951e296028c38fc311f44942c3f6bfc19404621417761",
    "experiment/honest": "8808d9bf64b89c18728ceb15d4f12732a1125ec877c91672979e82465b9a7ca4",
    "quarter/1073741824/bounded_rounds/single_bit": "0af88dad7c283f840bf2afcfcf951ee513019d24ea719861759893c7fdb3c2e7",
    "quarter/1073741824/bounded_rounds/two_bit": "c8a16aa22badc0d1859265ccb5f0069323ed5b75afc67f00850d8cf1f315d6e7",
    "quarter/1073741824/guess/single_bit": "e24e9de9305794522a436a82d8c4786f312344d3178dc786206d018c009cf156",
    "quarter/1073741824/guess/two_bit": "dba948db1dd8547b3a2ace8840a185660e2422ca10cccb724e5458878458f5bb",
    "quarter/1073741824/honest/single_bit": "48d45817878a05b1dbe96013aafa8887c196e7792ae45f99d9258ac020497e23",
    "quarter/1073741824/honest/two_bit": "c7b628c79eecc61074416055f77828482c6a9faef7520e7edc3e2f646a01e133",
    "quarter/1073741824/swap_and_forward/single_bit": "41c5fa9c99351bd1e8dedbd5dfd78338526c38d4edfeb9f445b80d39afc65f6e",
    "quarter/1073741824/swap_and_forward/two_bit": "2ccc889827e50e09efe0f122bdb70caed2d44e23ec817ef92818288dbbea352b",
    "quarter/2147483648/bounded_rounds/single_bit": "c24de796e529d6cf47626bf534321ec782e92775ffc1e9ba486cd1dd78d2093a",
    "quarter/2147483648/bounded_rounds/two_bit": "923dc97f813a6a9515b8608d24f12a8f8bc674a81d3190766d26fc123d8ebdc7",
    "quarter/2147483648/guess/single_bit": "3131ecb1d79b974adcee89b633f04bdbe1c39789fddc282b8f68393df42a222c",
    "quarter/2147483648/guess/two_bit": "71d88cf0e1485c84d444564998388025c6d4a4aea5d35a520be098c4f5cd0301",
    "quarter/2147483648/honest/single_bit": "040684d21b879f1e69ffb6dc22d938ef55549dc9210743037de747c83848027a",
    "quarter/2147483648/honest/two_bit": "586701c79b5fb010f440905568ce6d1d0b131c7049d801f031de037cefdc2707",
    "quarter/2147483648/swap_and_forward/single_bit": "681f7fd0a0261085735bdd416af57647a4bd2cece8153624fd7562fe4557bc9e",
    "quarter/2147483648/swap_and_forward/two_bit": "63957cb1269982b4621a50042a2955362412b659de06938484bd28fffb8e9efc",
    "quarter/3221225472/bounded_rounds/single_bit": "e5e0a8e72f2e2601cada23e3f4e93e1f805bb03d2457db66f92293564af4407f",
    "quarter/3221225472/bounded_rounds/two_bit": "b6cacf970d726586cf626a3b89a583f35fb0866ebe6e8ca5fd65197f52223b73",
    "quarter/3221225472/guess/single_bit": "a3e3256e19825ca365f7c4d12ca3b53c31c30a70dc02ce3af99fb9ebc1232021",
    "quarter/3221225472/guess/two_bit": "fd11cce249fa78d3b01f0c5cbcfa03368e36903652de9621613f44f645b005cd",
    "quarter/3221225472/honest/single_bit": "bae9df8e2ac30a6860824fae5ff18bb02fa570cced682d1e741e3997ac77d3ec",
    "quarter/3221225472/honest/two_bit": "4a920116ccd6348226ab9a0a5e1e49fbc7e2504d5efcbe09178dfeebc031b108",
    "quarter/3221225472/swap_and_forward/single_bit": "c6c4c98602c7ae7b5e941079036094c458f946cfc445cf343c379560f98c8317",
    "quarter/3221225472/swap_and_forward/two_bit": "4bfdee9d21444668ec83b175c1e395e4a25b22649861bbb21b914434719d1fed",
    "run/bounded_rounds/single_bit/0": "28ff7c6aa932227f29976cc7ce61dc9ce3f6b8888a773259326677e4b8471c06",
    "run/bounded_rounds/single_bit/1": "513ab300b93e5a0d339bf675f897a7211df7e53e28bd33f9b986a9d8198fd71a",
    "run/bounded_rounds/single_bit/2": "23291acda9f6c0e31726138ecd2a0b306efc3f1c6769235acade3581bf2b227e",
    "run/bounded_rounds/single_bit/3": "16f06cf9397eba2fd86d9ea1e310e1475bb4979b05a2502a417f9e0b460e170d",
    "run/bounded_rounds/single_bit/4": "8e7a1d99b7bed22a7583eea046093c5adbaab9d4919bfb7de155c024aa3f5b8a",
    "run/bounded_rounds/two_bit/0": "f29f2fe51b646b105e5dadc8bc3d6cabead52cbec494d160f6b94b385774b735",
    "run/bounded_rounds/two_bit/1": "1a5841e2fa87e66f095655b6e89728824b3f67b2ed1bacfbe2d87206e6e90973",
    "run/bounded_rounds/two_bit/2": "751c5a99ed3e4526e6e265225ffa490bc2f5c36ea31d1b9eff9b655bc0656330",
    "run/bounded_rounds/two_bit/3": "2d7f911260e9fadf43c5a933adb3703e36f59f79b1ea484b307048446a6097fb",
    "run/bounded_rounds/two_bit/4": "f000ab435b3d2e38147eb338b71f6d3c99d39890209702f248b4073ef6294e39",
    "run/guess/single_bit/0": "dbaca22b59e64b9d7c34c94fc81aec7e75e95e515cc2af2acb060a4346241020",
    "run/guess/single_bit/1": "69ab1843517729572135b99e78b02dacd65ee06d0f82f0c16cce032eeadad0ea",
    "run/guess/single_bit/2": "00bc2fd5fcd0a1b3c0024fd5d96330524309751f500a44a0890ac424ca16d94f",
    "run/guess/single_bit/3": "75f6bc1791e48f3ce46fab5991c2137f3e8a7bc9ec6f29d33fc24c85a239ec99",
    "run/guess/single_bit/4": "e26d5fe4dbdc6904380d1324affc73c188ae71d4297900e2053754b6536b44d8",
    "run/guess/two_bit/0": "fc6ad67a57665f0c52685ca22ef397775f97e9f4d752ade62af02d21be867370",
    "run/guess/two_bit/1": "5269d114ceb164bd884727a8a424fe701379f5db3d94fc61fad7138cbd813c58",
    "run/guess/two_bit/2": "3029948355ce29ce14ce49245cd3f3d19c99cc122ff5699c23fc5489440b628d",
    "run/guess/two_bit/3": "f14c03b636433edd97fd878d6af761b3468e5fe133d14ce30fe2a04155ec836b",
    "run/guess/two_bit/4": "eacf2136278f173266246228a459b12136987e7017db0f01d79fd5ee3727ef53",
    "run/honest/single_bit/0": "2d11da37f08fc10c5aa4b2acc9643bac705fa799e841aa3aff36422af43fa9ac",
    "run/honest/single_bit/1": "2034df8df43b8c276780c51ec3eec11e2354994652a01991c490f4a601a09787",
    "run/honest/single_bit/2": "7b9ea46316c043e1ddb4271bdf2413133908e9162ba69047ecf2cbc471f6cf9a",
    "run/honest/single_bit/3": "b0eab282e327ee249a0e153c59a87dafd5c9654cae3783dd1e37b6a447fc401e",
    "run/honest/single_bit/4": "33ad9aa51959b0c4cfcaa7f09612dd935c7aa75415dc371386a4f43b9a870577",
    "run/honest/two_bit/0": "9901203ee986bccdbcec7225dfd790cfda4ae12927fa85061a4b40ef1470f304",
    "run/honest/two_bit/1": "474569112a0ada8f751e8bfd45368bda252bd0fad82f41ee5eaf90ba0783a784",
    "run/honest/two_bit/2": "fa620d06ecfea2e6be29feee2b6a1d7cd959917128d30f94a1a8708d8f4d9524",
    "run/honest/two_bit/3": "5ec7a47ce9f86799cd0467dd080ee9c4af94f0aef987594ab60a552c607f9afa",
    "run/honest/two_bit/4": "28bc9a7cc5dac7c9216321918f86fa35aa8e12a8ae64c2711b3446dbac433690",
    "run/swap_and_forward/single_bit/0": "aa10fbca8511bd0863ad74732e8c8858dafc3050b92416d88874fd6f26517b08",
    "run/swap_and_forward/single_bit/1": "bfcda13c9d01eefaa7cb224e964339b3a9be1b61bbbdc5dd11d64cad9abb35da",
    "run/swap_and_forward/single_bit/2": "82ed0d7b8f6d7b4a4ea22aa4e8e146617596d3b88135175d9f3e0dbe81a30f43",
    "run/swap_and_forward/single_bit/3": "1154edae7d3bfb911487dbce6e8c86aae8f26e5f06b537d41c01ed2e20edc5d9",
    "run/swap_and_forward/single_bit/4": "218b218aa74eb8b60f45ee39fb7cf0f270cc84a4582f92dba4ca903197576d1c",
    "run/swap_and_forward/two_bit/0": "4b14361b51994a61fce5d1f98bb3776695a58411ead80170a30e05e23e5e4db5",
    "run/swap_and_forward/two_bit/1": "fb7b568adb9e70fa4a209c1c721128ab832716061aaefd695de22db015408d58",
    "run/swap_and_forward/two_bit/2": "79258abffbf19a648d5e645972e618878b0ab7686efb026a7abe9b79446a0196",
    "run/swap_and_forward/two_bit/3": "496560053d669f120df27e7ac2766027ea29dd0225d677c701bdb45a839adaa2",
    "run/swap_and_forward/two_bit/4": "689a058db0aa107fc8bdb896174563de7fd8a037e537720f152e7742b4289474",
}


def single_run_bytes(scenario: str, variant: str, seed: int, challenges=None) -> bytes:
    config = ProtocolConfig(n=SINGLE_RUN_N, variant=variant, challenge_states=challenges)
    if scenario == "honest":
        _, transcripts, events = run_honest(config, seed)
    else:
        outcome = run_attack(AttackConfig(strategy=scenario, protocol=config), seed)
        transcripts, events = outcome.transcripts, outcome.events
    return (transcripts_to_json(transcripts) + "\n" + format_event_log(events)).encode()


def quarter_run_bytes(word: int, scenario: str, variant: str) -> bytes:
    """A single run in which every draw is ``word``, with both challenge states present."""
    words = lambda core: np.full(core.slots, word, dtype=np.uint64)  # noqa: E731
    with mock.patch.object(TrialCore, "_next_words", words):
        return single_run_bytes(scenario, variant, 0, challenges=[0, 1, 0, 1])


def experiment_bytes(scenario: str) -> bytes:
    spec = ExperimentSpec(scenario=scenario, n_values=EXPERIMENTS[scenario], trials=EXPERIMENT_TRIALS,
                          master_seed=EXPERIMENT_SEED)
    return render_json(run_experiment(spec)).encode()


def cases() -> dict[str, object]:
    """Case name -> zero-argument function giving the bytes it pins."""
    table = {f"run/{scenario}/{variant}/{seed}": (lambda s=scenario, v=variant, k=seed: single_run_bytes(s, v, k))
             for scenario in SCENARIOS for variant in VARIANTS for seed in SEEDS}
    table.update({f"quarter/{word}/{scenario}/{variant}": (lambda w=word, s=scenario, v=variant:
                                                            quarter_run_bytes(w, s, v))
                  for word in QUARTER_WORDS for scenario in SCENARIOS for variant in VARIANTS})
    table.update({f"experiment/{scenario}": (lambda s=scenario: experiment_bytes(s)) for scenario in EXPERIMENTS})
    return table


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(cases()))
def test_stream_digest(case):
    assert digest(cases()[case]()) == PINNED[case]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(cases())
