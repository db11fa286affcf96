"""SHA-256 digests of built tensors and families, pinned.

The assembly may change how it computes, never what it computes: every
tensor JSON below must stay byte-identical.  The curves are one integer
and one rational curve per parity at k = 1..8, and the zero-curve
families with their unit directions at k <= 4.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from artifact.bracket_forge import build_family, build_tensor
from artifact.curve_ring import CurveModel

CURVES = {
    "even-int": lambda k: CurveModel.even(k, [1, -2, 3], [2, 1, -1, 3, 1]),
    "odd-int": lambda k: CurveModel.odd(k, 1, [1, -2, 3], [2, 1, -1, 3]),
    "even-rat": lambda k: CurveModel.even(k, [F(1, 2), -1, F(2, 3)],
                                          [3, F(-1, 4), 0, 1, F(5, 2)]),
    "odd-rat": lambda k: CurveModel.odd(k, F(-1, 3), [F(2, 3), 0, F(-1, 2)],
                                        [1, F(1, 5), -3, F(2, 7)]),
}

DIGESTS = {
    "even-int k=1": "6b21b7f0afc7d80e1e0f4760e35bf76d119a8ce7634f1a8936005e0d130e50ba",
    "even-int k=2": "231fc34d0debaf0d7b33d47122ba3921f9b7daba95b45ae007b02ce492bd083d",
    "even-int k=3": "a0722c3a637fd2cfd6207a87b6a902567d7db86910c2daba96b6bdacf24a8533",
    "even-int k=4": "6ff677193e2ec0ab4e39b2d743de2db596141f029bc603f44dd524fd875c840b",
    "even-int k=5": "c88019e372eef99e0106f4d5a898ab1f1db4b0f19397c5accbbbd5c2fcafcc8d",
    "even-int k=6": "b678e2a6c4790430c1ef7990e62a733bc7c422cd12ac71562c7fc02167534a22",
    "even-int k=7": "7479d0af735e88fdaed5bd4925c4488fb2e7ec7c8e4d309d2bde5c1bca3383b6",
    "even-int k=8": "f31267a0167ae3ed59fc6bc38a24de21abc1f4e356ecbec356343b0ce1bedeff",
    "odd-int k=1": "87eb501a271858aa5335ffe28f4e3063d73ad96d1fecae6091a7b289cd981373",
    "odd-int k=2": "0d95994187de045f9a4bc21f895bb02cbd067f5c203a75faea6a82de8d1cb95a",
    "odd-int k=3": "a6fb59e7bdeb9d87b523ac77a717b3f66b52075b9589a7e3a19571f976b8fa65",
    "odd-int k=4": "58d645d8c01676f1bb0190c141710e7c86ba54a74d59b0999d208b03a3076d0e",
    "odd-int k=5": "a9d7c58ad33ddb20cf9a72bab778e6788a515d7605f84ece8f1369ad3d564758",
    "odd-int k=6": "1a9faaba7dc4b88a82d96790e737140b4a82609665da9fca43fc7ff0320b2b94",
    "odd-int k=7": "746e64be2043ece214e62b0132eb32371364148684ea1a00d1340d1c13027582",
    "odd-int k=8": "92682e3326ec8df2222d11766af118b23af089cf82b59b282a9678535d88d1c3",
    "even-rat k=1": "a2953c54c455a1e184d708596dfda818b7a23e5b1fe2f0bd8cbac18c385aa422",
    "even-rat k=2": "8c719d01687c3c85eaebdec547330a746c85ad33e689f392de77f591cb88a9e1",
    "even-rat k=3": "33fe420e9ebe622701664edb4b2fbe41ac182453d57fa90d417d852856a76a76",
    "even-rat k=4": "e9e5b2ecd4a7ace844e4ae2fb8e4c36a168ee1b63c30969e903e5ead63423809",
    "even-rat k=5": "7347b3d5d19705407a89e28c6a252c6ead3bff091fe939bda8b21d5d2125dc7a",
    "even-rat k=6": "1b008377dff1657c6b34f976aa61c60c61f77528a83dc8f83d89b9dc817038db",
    "even-rat k=7": "4eb57db95c096c00dd77b1b4633ae0aebaa2f5b08de12fb516c99505bde364e4",
    "even-rat k=8": "2e00ad8356aa33c6b92609c2a5f3642f2761f07c1311e21b2c31eb99a8807b14",
    "odd-rat k=1": "ffdeb56ee676ed065a677aaf4c03ecb97d44b37cc7bbe82385fc14e7bb92339f",
    "odd-rat k=2": "7f38648a5cda62850dc9b15fbb344a27d14b22a41d41f3b98ac456ad6f3be136",
    "odd-rat k=3": "43f7203c6a51524838407e7fbd0a6e419afae79e51b78de3ce98b1f3a239a6de",
    "odd-rat k=4": "7a5876dd9d88b5d9fc9103c05ea8cee6f09c1ee9ba13adf5f56ce4e5d865d7bd",
    "odd-rat k=5": "03702036c86d21a1d30470bd4dbe5e82ba800514fd452fd98dfd2cbb7c1f63ef",
    "odd-rat k=6": "eb47965909da8cce4e718b1f0f06576e290c185b06304d1788fd710e885ecf2c",
    "odd-rat k=7": "7457c858ea097b46d26fbae25eb816b7efb4369cc12d336bd9edbcd37b16d706",
    "odd-rat k=8": "31fa90e32c310ee417f4e4d78b0c89b166af7502b48edeceade673f30c857be7",
    "family-even k=1": "765a16ef2279d142ea29839058db29ca50c15f7ef2cc6e883a9159dd692812eb",
    "family-even k=2": "9275309b7823c183fe7053043f62e6842122a6bd7d27c07f7d7528cbe41bee4c",
    "family-even k=3": "2b98e89d0509affbe5a0ff3f3ad97012161d3d56277044c1b0692d77609a57b6",
    "family-even k=4": "d4f193612393c11ddd25e897f5989662d7502f57ad9b5cb363bb3fd4ead6844a",
    "family-odd k=1": "f769fd4a485f8bcc5861f3674b966b4f1e0bfc4c5e59a941e52c1e4910eab11e",
    "family-odd k=2": "9ed7f8d0342c995169f52fdec58251b1341546786b2b4d6348da2d42b2722135",
    "family-odd k=3": "be1e1b2e75c56947318ace180408510d21abd4b27e7b654545551de692e058e0",
    "family-odd k=4": "c35d9369c619789e29d1ae49066eb1a8716dda0f79e3861439f8df0180b56cc1",
}


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("curve", sorted(CURVES))
def test_build_tensor_digests(curve):
    """build_tensor(...).to_json() at k = 1..8 hashes to the pinned digests."""
    for k in range(1, 9):
        key = f"{curve} k={k}"
        assert _digest(build_tensor(CURVES[curve](k)).to_json()) == DIGESTS[key], key


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_build_family_digests(parity):
    """build_family(...).to_json() at k = 1..4 hashes to the pinned digests."""
    for k in range(1, 5):
        key = f"family-{parity} k={k}"
        assert _digest(build_family(parity, k).to_json()) == DIGESTS[key], key
