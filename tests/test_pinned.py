"""CLI output bytes pinned by SHA-256.

The digests were computed with the stage-by-stage, plane-by-plane scatter
implementation that the composite-matrix core replaced. Keys, stego images,
the embed metrics CSV and whole-image scrambles must keep these exact bytes.
Inputs come from numpy's PCG64 generator, whose streams are stable across
platforms, so nothing here depends on floating-point rounding.
"""

import hashlib

import numpy as np
import pytest

from catstego.bitplane import capacity_bytes
from catstego.cli import main
from catstego.netpbm import write_binary, write_gray

PINNED = {
    1: {
        "key.txt": "66f7d5eab1fff8a94e073454d99214a1a9035da62d72e0fff2e699193b507686",
        "stego.pgm": "937cb5f10c1d84514da47a0cdd6cd182514756b0496aad5e3878155e3f5097f0",
        "stego.pgm csv": "a80c7f0138bc6cc40a570847fd664e103a65fac7289bf18b3b22697716b63692",
        "scrambled.pgm": "dbb28ccca298fc36d9513686913f169d10a6306e6823e92232e2505996e1aaae",
        "unscrambled.pgm": "dbb28ccca298fc36d9513686913f169d10a6306e6823e92232e2505996e1aaae",
        "scrambled.pbm": "a293aabff7eae7f96579e5e6bec8665d16b608f2a66a4d7053f7d6b432224291",
        "unscrambled.pbm": "a293aabff7eae7f96579e5e6bec8665d16b608f2a66a4d7053f7d6b432224291",
    },
    32: {
        "key.txt": "235afa9674187b1c66b3429df40e8c11215bdd352ce9f558d8a8aebe11a7d9c6",
        "stego.pgm": "aa6380bef30f1a570f796d511f689dad5e0d1d163f707ca6b87304bf8b5f5412",
        "stego.pgm csv": "bf70670e17cd06c3d0264ae2d16f4180dd1dcb7ca6a6bb85dc6a1dd2d6553853",
        "scrambled.pgm": "e4bae77fdb2a5fbfd79c84b74f5afe31bff8ea35208432909762f89d8cbd5358",
        "unscrambled.pgm": "99f9f12a2a7e907afb03e1b8c21f2ed4c3b14d756bf3d2cb715ddd83c5714477",
        "scrambled.pbm": "f225aa59485aab1ba924c987154fc9f5f30f1e7776a76e2c86e60cc579bb5fdb",
        "unscrambled.pbm": "1d398076fec9543270a8493e9bf92cd11c8b15599855a17f937cb75b86a70182",
        "packed.pgm": "3f9f038b1f269affc20208d71ff750deed425d03670791086b40a101fbd5362c",
        "packed.pgm csv": "b25e2bba255c2b0930ad6690ba8c1fcc68f995ecca9a2a557b58763d45144b71",
    },
    127: {
        "key.txt": "99c58854fef3fe1c81dfec64f68c00bc706943868579c22772188580cbb5b4c1",
        "stego.pgm": "2e09d554d6d4b69aa2f8c02fb667798d104f10b9b71c09d93c865970558f67f1",
        "stego.pgm csv": "d331aba9ea8149a16341ffa023ef1f1e5418456c4db01d72adc1b18ea92e510a",
        "scrambled.pgm": "dc3e2781e563b2eced59272fcc1ab2552c8bb626eac48b90c06414b1c7ee52f3",
        "unscrambled.pgm": "16a3fcdc28ced1ca7159dc18509e05196c2b3db5e22d246b74a468b9919c3e3a",
        "scrambled.pbm": "a2ece4da18e2449cae0aadb92a0d93e632bc0bda2990b70c8dff9c13fc7588ce",
        "unscrambled.pbm": "e9ed373db125d1402a4aea4a0988ca4a09fbf92a91014d4e06259b51c5d513a6",
        "packed.pgm": "123577a0859703ce7ec3f7a57e13e3907a26d055a2a31cadf0a1467c178940fe",
        "packed.pgm csv": "bad1065c4933a0d7c0b9e543420ec0055727b132206d91105ebd97845cd6f5cc",
    },
    128: {
        "key.txt": "fea82a305e1605fe3b53036bf7ef644fe9dc0095198aff7405c92578d92d3adc",
        "stego.pgm": "ba837bd9262de62a8cbe9245745cd66282928a32a3e10d5785e5b6192f002b71",
        "stego.pgm csv": "80e87d251ec7a51041aa45160298fd813fc60e325f1dea4877c3fe02530ef30e",
        "scrambled.pgm": "94d8de5cf091ce93d1a911de6a1a86aae7fc3884501f331b6c41cb47c3a48435",
        "unscrambled.pgm": "34f53d4a977c368cec5d213b226b963222b8bea7ac6882a8f9f90542524d0fab",
        "scrambled.pbm": "05e78c00293c6adf183aef3ba4d5321fb48e19a75a01ab57cecf67eafa9eff88",
        "unscrambled.pbm": "e45826fe09f8c210a300a422747964f0464f83b7df10930275b639b6fd2bc97a",
        "packed.pgm": "2815b2d6fd7028977fd1ddf8b4b0df48aafd5533e6e05bac9247ffec3a92b0c8",
        "packed.pgm csv": "0a1182854503580176ddcef7cf4f7395edfd46511f12ce70252fc2281c364630",
    },
}


def _outputs(ws, side, capsys):
    """Run keygen, embed, embed --pack, scramble and unscramble at ``side``;
    return the SHA-256 of every output, by name."""
    rng = np.random.default_rng(side)
    write_gray(ws / "cover.pgm", rng.integers(0, 256, (side, side), dtype=np.uint8))
    msgs = []
    for k in range(3):
        msgs.append(str(ws / f"msg{k}.pbm"))
        write_binary(msgs[-1], rng.integers(0, 2, (side, side), dtype=np.uint8))
    key, cover = str(ws / "key.txt"), str(ws / "cover.pgm")
    runs = {
        "key.txt": ["keygen", str(side), "4", key, "--seed", str(side + 7)],
        "stego.pgm": ["embed", cover, key, str(ws / "stego.pgm"), *msgs],
        "scrambled.pgm": ["scramble", cover, key, str(ws / "scrambled.pgm")],
        "unscrambled.pgm": ["unscramble", cover, key, str(ws / "unscrambled.pgm")],
        "scrambled.pbm": ["scramble", msgs[0], key, str(ws / "scrambled.pbm")],
        "unscrambled.pbm": ["unscramble", msgs[0], key, str(ws / "unscrambled.pbm")],
    }
    if capacity_bytes(side) > 0:
        payloads = []
        for k in range(3):
            payloads.append(str(ws / f"payload{k}.bin"))
            (ws / f"payload{k}.bin").write_bytes(rng.bytes(capacity_bytes(side) // (k + 1)))
        runs["packed.pgm"] = ["embed", "--pack", cover, key, str(ws / "packed.pgm"), *payloads]
    digests = {}
    for name, argv in runs.items():
        assert main(argv) == 0, name
        digests[name] = hashlib.sha256((ws / name).read_bytes()).hexdigest()
        if argv[0] == "embed":
            csv = capsys.readouterr().out
            digests[name + " csv"] = hashlib.sha256(csv.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("side", [1, 32, 127, 128])
def test_cli_output_bytes_are_pinned(side, tmp_path, capsys):
    assert _outputs(tmp_path, side, capsys) == PINNED[side]
