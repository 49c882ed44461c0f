"""Byte-for-byte pins of the construction report, the sweep CSV and the
class-number commands.

Each case runs main(argv) and compares the sha256 of its stdout, and its
exit code, with values recorded from earlier implementations: the
construction and verify cases from the hand-written family loops, the
identity and classnum cases from the search over (a, b) for reduced
forms. They cover what the structural tests do not: the dedup ledger's
site strings, the empty C1_F4 subfamilies in the JSON, and the text
report as a whole. A refactor must leave every digest unchanged. To see
what moved, diff the output of the failing command against the same
command run on an older checkout.
"""

import hashlib

import pytest

from halfsum.cli import main

# (argv, exit code, length of stdout, sha256 of stdout)
GOLDEN = [
    (("construct", "43"), 1, 702, "fb1e3375c3a8ace342030d42440fd2fd0d2c71f1492d5f854c04d0574f5ce3e8"),
    (("construct", "43", "--json"), 1, 2285, "733093a2748b412d2ea91270078b3ed87286f56f7746c14d1206fa36ebd5e76d"),
    (("construct", "47"), 1, 457, "f2cd6cd2eb121e0ab66e74db1f254b6110ffc9a26a26a53c357c67e72394d261"),
    (("construct", "47", "--json"), 1, 1782, "8fa5a75bba7b84f13fd38b6d68ee59b799a239dbb0134da0b57a40c7e76216ff"),
    (("construct", "107"), 1, 808, "cb708d1a92590425aee6349dce15a18e2912cf591a6dddc72055c68967b9c2a9"),
    (("construct", "107", "--json"), 1, 3537, "b5337497736a4b0b4e2987ecb897456e0acf04cd6ac64e797f80cd7853f695cb"),
    (("construct", "131"), 1, 862, "23e8b0fe687b7808f7c86e1b9dbe57b17d110f38f08557e50baf8181780438ac"),
    (("construct", "131", "--json"), 1, 4022, "9ced2fa1c894fd9c8aae1845c6fed44066c7c6bce3ab946717598cd48522b442"),
    # Case 1 (p = 3 mod 8) near 2*10^4.
    (("construct", "20011"), 1, 53957, "3eb0b2652d2cc3cfd2e906fc640c8e6796f8d85e44855bf6714fc9db871a13f4"),
    (("construct", "20011", "--json"), 1, 490281, "f84728441d675db40e903d2800e958a36984c13d9c2ba40d9d99cfae06428672"),
    (("construct", "20051"), 1, 53869, "faa284b13031a5903f7f33dc807838090197cb180d89120fa5b450ac0bb10f80"),
    (("construct", "20051", "--json"), 1, 490301, "5d9285bcd03ab0797d9492a003dcf1aca88420c27ebc6d40eeac7f6104d83573"),
    # Case 2 (p = 7 mod 8) near 2*10^4.
    (("construct", "20023"), 1, 65814, "f7ec72141d2d59f80a3e2585da96f7cbfeb2398ef96fe57ee275e2d119bfeddc"),
    (("construct", "20023", "--json"), 1, 513349, "68c869da5e4fad715df88add9564e1b0733c280f225e1a2f00b8884a6a0b903d"),
    (("construct", "20047"), 1, 65329, "ba906a45f04f6a1ad85ffa639a8c1f8428d50e62e25b0f6f8417dfa2156cd826"),
    (("construct", "20047", "--json"), 1, 512514, "48d00091bc16114322fb1b9ec59d8b455d9cfdebb8b6db218ff57a49eb963f6a"),
    (
        ("verify", "--from", "3", "--to", "3000", "--format", "csv"),
        1,
        7630,
        "1deba7b8ef98585dfe994952b9826903807cde79f7b81898625201cb6e60fdd3",
    ),
    # The class-number identity, below the direct-loop cutoff and near 10^6,
    # and h(-p) by both methods.
    (("identity", "--from", "5", "--to", "3000"), 0, 58, "2e6b70cccbb039f79e6cf4137dd9cd587c0399cf3cc551d10f0551f3b2dccea3"),
    (("identity", "--from", "1000000", "--to", "1000200"), 0, 65, "1dcbbe1cae7e7082ac46084a1579ad53b4e78ff65e52e9411b3618ccf8c8f4da"),
    (("classnum", "23"), 0, 11, "e4160c5212951a283e7c10da1de1dad13b93582600bba015f1f7e8638cb5f77d"),
    (("classnum", "163"), 0, 12, "6205f290b7be66d978523fcd0d6d9a6f028633635d1debac0e01d1e8b6cd0b73"),
    (("classnum", "1000003"), 0, 18, "50bb68c6bc40ca199545d04e8f615ae8a5e98856cec665ec3afa28c030c900fe"),
]


@pytest.mark.parametrize(
    "argv, code, size, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_stdout_is_pinned(capsys, argv, code, size, digest):
    got_code = main(list(argv))
    out = capsys.readouterr().out.encode()
    assert (got_code, len(out)) == (code, size)
    assert hashlib.sha256(out).hexdigest() == digest
