"""Byte identity of the command line's artifacts.

The benchmark's operations, the paper's two headline runs (620 and 115),
the two runs that lean hardest on the column kernel (the widest d at n = 5
and at n = 4) and two that lean on the exact relation verifier (a d = 4
witness deep in its layer, at position 4,070,000, and a verified relation
among rows with a repeated colour), each at `--seed 1`, pinned by the sha256
of the artifact they print.  The subgroup records of S_4, S_5 and S_6 are pinned
too: `groups scan` prints only its survivors' generators, so these three
are what fix every class's label, order, class size and generator list.  The
orbit runs, `trees canon --n 6` in both formats and two labelled profiles at
n = 5, pin the representatives that `labelling` builds.  The tree and
multi-index enumerations, one projection and the n = 3 character table pin
the outputs of `trees`, `multiindex` and `groups` that no run above prints.
The last five pin the row builders' edge cases: the chain orbit at n = 5
and at n = 1 (`--linear`), the orbit 3,0,0,0 in which one vertex parents
every other, the one-colour orbits at n = 8, and a two-colour profile.
A change that alters any byte of these artifacts fails here and has to say
which field changed and why.
"""

import hashlib

import pytest

from elemdiff.cli import main

PINNED = (
    ("dim w --dim 2 --n 4",
     "f3cb7f18c57635714f343905994c3e8409ad6456bcc7a9f4f4160124ce3125aa"),
    ("dim w --dim 3 --n 4",
     "f283119b221d40b2f7cba5d8d2fb135f635e395142668ff8d302d93a85228f2f"),
    ("dim w --dim 2 --n 4 --linear",
     "3ebc2443130e6bdf2a0a1982a3c2fe89a2f9bb38aeed68a1ad925960ef7d7f3c"),
    ("dim w --dim 3 --n 4 --linear",
     "70b22c6ed0c6e1b1fe50b7c01a73a35f1f439449988e932e3d3647676bbb9fb9"),
    ("dim w --dim 1 --n 5",
     "ead9f343784f313a7770667b4291366a90b24f6531b10c99ccac88e39d94bdfd"),
    ("identity s2d --dim 2",
     "54acf884cbe7ce2004f5333c7456d2b536b1c128d10b24928565f52d74d050f4"),
    ("identity s2d --dim 1 --check-dim 3",
     "1b30d1f15d3e31580d9dfecd931eb400b42d2f3c25c4b63df81a26e227a00ce4"),
    ("identity s2d --dim 1 --check-dim 2",
     "70cf99b32c06fef29a195ae1d872f503cf454064a36a96acdd12901d5f2489b1"),
    ("dim w --dim 2 --n 4 --labels 2,1,1",
     "0b1180f625529dbe26b7e3212c2dbe4e98465ccd43946ebcf11d46541a790160"),
    ("dim w --dim 1 --n 4 --labels 2,1,1",
     "12edd5ffcf781a9d45dca89879b952fa004ea3e6e00f7893c9b231adc1868964"),
    ("trees canon --n 5",
     "9adfc9661e357f649201c83d6f3d2780b39eeee95b7a41c8a5b26773f146ef95"),
    ("groups scan",
     "0350673081e99a495270ddefafe754026af0ac72138c9fe60e7fb5944862c7db"),
    ("char table",
     "d9ec5626c95295923433eb631732b0d976ec54e813c6658c9364d6152c9c56ff"),
    ("block basis --dim 2 --n 5 --mi-orbit 2,1,1,0,0",
     "f0e4d00efdf7ba7e916c03280b5a779963a39aa13ebc0d25ec92b1eb843948c3"),
    ("dim w --dim 2 --n 5",
     "69730d264040d6b941b6e2eaa2131f64128883a78df4af75c4087a83703e7ca3"),
    ("dim w --dim 2 --n 5 --linear",
     "f0451aa069d77bf7038267e2ec04c8c2e2cacf89c449b91046b4e74478350b0b"),
    ("block basis --dim 5 --n 5 --mi-orbit 2,1,1,0,0",
     "e7c16cdb64e803a8dffd75f116525ece383ea8f981b7526b9a679758e50b8cf5"),
    ("dim w --dim 8 --n 4",
     "5d2a0088b9708a0439ec6dd6136a51951c0e419f77a502d62b43602cd9edce5f"),
    ("identity s2d --dim 2 --check-dim 4",
     "41cbeedae109e9f9fe02591599d6db53574f4d50296ad1c8a93488a95127edfc"),
    ("dim w --dim 2 --n 5 --labels 2,1,1,1",
     "25f2769beea43cd7e797d1de87d5026e11b00df43b6c5473d37de07a84f78534"),
    ("groups subgroups --n 4",
     "9b2371747a230775d70a4395d86688ea3901de236e1dcde2403fb2e8f6e5b87a"),
    ("groups subgroups",
     "eac1e113e371bbfcb1d7c6c5d5f4d8156cbb609964650f3e6d17ebcb1e3c67e3"),
    ("groups subgroups --n 6",
     "14464ef9ebadba64148d99e4d5f082ab268cd6c7fcd2d688a8f58efbdb76a88d"),
    ("trees canon --n 6",
     "1f8721d328e3849ce7017e66457b82fbecf89bbf6eaf8c5de6e286b7a55adb6f"),
    ("trees canon --n 6 --format json",
     "ee96f3ea1942ba774179378227086a99510f944aa33c093634b0808f87c522f4"),
    ("dim w --dim 2 --n 5 --labels 2,2,1",
     "456dea3d71821c5e996477d6bf48a9954730b280ee8baae5680464314fc3af14"),
    ("dim w --dim 2 --n 5 --labels 1,1,1,1,1",
     "4d6463ae895b956518823050895ce7f1bb620a80acef522d2a4b0f99b2f44409"),
    ("trees enum --n 5",
     "0bbd0880dc90bd128343113be36cfaa676f0f80b17c80384a6ee8f356eb09418"),
    ("trees enum --n 5 --format json",
     "7dfb9d7bd1864ad702a2d89f3b6dbfd5531c55b8da6f281a38e589e9b643abdc"),
    ("mi enum --n 5 --format json",
     "5aa0beda30e6b9eda4c6599729d228bcadad1d61087663bb9c91c30771bd21ce"),
    ("mi project --tree [0,1,1,2] --format json",
     "081951c6ff8d4096cad0f27d54a6f53a446748d3971e2b44c852f1c669af14eb"),
    ("char table --n 3 --format json",
     "4f9e167a68af16dc69e94c9a515365bad1f7e43699514034df198ec4a1c807d8"),
    ("block basis --dim 1 --n 5 --mi-orbit 1,1,1,1,0",
     "e2709855a1afd924c98ef83a7c5810d63409071ada6a6086adf2a0f86e6348a4"),
    ("block basis --dim 2 --n 4 --mi-orbit 3,0,0,0",
     "f4cf6abf36542cdcdb2353eb4a015e771a0ed17f6e4965b042ffbd64714dc499"),
    ("dim w --dim 1 --n 1 --linear",
     "34bb25da136990826b159eac74a1448bf86b78913f08dd110efe1859d3edd9f1"),
    ("trees canon --n 8",
     "6ccb96b0d55eb19d5a8f260f1236c55cf79f98f1b98e7520650bfb990123143d"),
    ("dim w --dim 1 --n 5 --labels 3,2",
     "94c0ea81fe2b6db946df2f974308c0dae94dcc2b56d57556b90e7fbac817afd1"),
)


@pytest.mark.parametrize("command,digest", PINNED, ids=[c for c, _ in PINNED])
def test_artifact_digest_is_pinned(capsys, command, digest):
    assert main([*command.split(), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
