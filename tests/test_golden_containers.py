"""Golden container corpus: encoder output must stay byte-identical.

Every case compresses a short seeded CMIP chain with
``chain_to_bytes(Codec(config=cfg).compress_chain(states))`` and compares
the sha256 of the container against a digest recorded before any kernel
optimisation.  A speed-up of a fit, an assignment or a packing kernel must
leave all of them unchanged; a deliberate format or compression change
regenerates the table with::

    PYTHONPATH=src python tests/test_golden_containers.py

The corpus covers the three strategies at B in {4, 8, 9, 12}, with
adaptive model reuse on and off.  ``rlus`` is benign; ``abs550aer`` is
heavy-tailed, so clustering's ``space="auto"`` picks the linear, asinh
and equal-width models across the cases (and the exact path when a
candidate set has at most ``k`` distinct ratios).  The adaptive cases use
a small drift threshold so cached models get refit from a warm start.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np
import pytest

from repro import Codec
from repro.core.config import NumarckConfig
from repro.io.container import chain_to_bytes
from repro.simulations.cmip import CmipSimulation

#: (variable, simulation seed); 64 x 96 grid, 4 states per chain.
VARIABLES = (("rlus", 3), ("abs550aer", 7))
STRATEGIES = ("equal_width", "log_scale", "clustering")
NBITS = (4, 8, 9, 12)
ADAPTIVE = (False, True)


@functools.cache
def _states(variable: str, seed: int) -> tuple[np.ndarray, ...]:
    sim = CmipSimulation(variable, nlat=64, nlon=96, seed=seed)
    return tuple(np.asarray(cp[variable], dtype=np.float64).ravel()
                 for cp in sim.run(3))


def _digest(variable: str, seed: int, strategy: str, nbits: int,
            adaptive: bool) -> str:
    cfg = NumarckConfig(strategy=strategy, nbits=nbits, error_bound=1e-3,
                        adaptive=adaptive, drift_threshold=0.01)
    chain = Codec(config=cfg).compress_chain(_states(variable, seed))
    return hashlib.sha256(chain_to_bytes(chain)).hexdigest()


def _key(variable: str, strategy: str, nbits: int, adaptive: bool) -> str:
    return f"{variable}/{strategy}/B{nbits}/{'adaptive' if adaptive else 'plain'}"


CASES = [(var, seed, strat, b, ad)
         for (var, seed), strat, b, ad in itertools.product(
             VARIABLES, STRATEGIES, NBITS, ADAPTIVE)]

GOLDEN = {
    "rlus/equal_width/B4/plain":
        "a2594b62d7f9b7530150eebdf2ca8f382ed25ab9c51912510e29628f54508b95",
    "rlus/equal_width/B4/adaptive":
        "109e7aece6d8f4b35c2a82e6c4c7ca7a350b771d6b13022e614d956b6babacf5",
    "rlus/equal_width/B8/plain":
        "265e73417bdd3cedeaf94db75bf02fa681b466d1f052e1c6a7e7735a898d165a",
    "rlus/equal_width/B8/adaptive":
        "ed6ec2b8d823e62d79388ffce45092ff672458212fe00547907c40db96538a4e",
    "rlus/equal_width/B9/plain":
        "1df38616e89124455cd9e64190d58d5adefe9ca5e673778150f4b459400a3630",
    "rlus/equal_width/B9/adaptive":
        "0a7854d977bb5e1c1daf4adca661f31d726a9ba9548724395cda95eff2a6de23",
    "rlus/equal_width/B12/plain":
        "c79a54714fb122b234136a687808c118c6f70b0cef6a482ccd6e8b435d14cacc",
    "rlus/equal_width/B12/adaptive":
        "bbc055389d3e43710bfb2e1f539aabd2bb80579a8ebbb50417dc39541e86b6a6",
    "rlus/log_scale/B4/plain":
        "ec054cd15f97c7cef73a949abaf559413caddbc0a425c4f3821e607439ad88c5",
    "rlus/log_scale/B4/adaptive":
        "a0df6f8c5c8cfdae7624b69bc15af94891898dcb78746c04533fc3ea34771601",
    "rlus/log_scale/B8/plain":
        "b279295b161c2a8222c376af068043a4fe17035b946e2a60e8cd159f36a72953",
    "rlus/log_scale/B8/adaptive":
        "3da3928ba8217ef2bc53d4875d699b565645e0a5880dd04f9ec831ee2d21ad0b",
    "rlus/log_scale/B9/plain":
        "08f7f7060a4016a4b964cc81d59705f537d2e51af0e1452db31046bdd92636c4",
    "rlus/log_scale/B9/adaptive":
        "7b25007ab4b8436ad9d112e1cf06b792bc80683bc87be43809aceac6bccbf092",
    "rlus/log_scale/B12/plain":
        "7137b7ee5d88fd4e9e58e844c2f994725b0e0b9485a1ef99a990da5a7f09544d",
    "rlus/log_scale/B12/adaptive":
        "aeeab319909fc478cc33368cb215e377bbd8ba44b106a48da33d960db9f309d5",
    "rlus/clustering/B4/plain":
        "171a1a4ce77118ef2f5e5cc3f6ed7ee0b3680c91c4218bc83a49e2481d7476ba",
    "rlus/clustering/B4/adaptive":
        "346cd579bfff629fe7e7f6f3cd63506f274eef5d803dc20a88b5dda87abac806",
    "rlus/clustering/B8/plain":
        "63538d87d4a5ac55deeedba80b9b2389544985ed510f8d05527e3d325106ac0d",
    "rlus/clustering/B8/adaptive":
        "e9e5653c68cd420bde38be914bd1d6bfaa348b7c5991746ca955099e5cea8c3b",
    "rlus/clustering/B9/plain":
        "16ba4f3c3141a7371f75f24d832f1f3ab0c8b6a7f30a9648a50c0246554b1146",
    "rlus/clustering/B9/adaptive":
        "4861530b386eee47071043dcd6d912e4867ffd6debe959b99a4185593c86199a",
    "rlus/clustering/B12/plain":
        "62852dda094f9c6985792ea2333e0734f0f8c9716ab4a2fe37ee588fad390eca",
    "rlus/clustering/B12/adaptive":
        "d9a6bfa5b4c749d58a31b0cc68754339bf8d835bcdd7becdabdb2e21163055a4",
    "abs550aer/equal_width/B4/plain":
        "e0d1e31a5a0a8520dee34985afc657e37171c3844ac9cadf8615d64735d163f2",
    "abs550aer/equal_width/B4/adaptive":
        "b0a698755a5f6dd70743e4d6d435ba1395d8d26fc99d17dd6da41a1e10bb7e4b",
    "abs550aer/equal_width/B8/plain":
        "540f4cfe61a9f172129905665252ff10dd8bdc5fcac7839ffcbee5888dd3e97d",
    "abs550aer/equal_width/B8/adaptive":
        "d7e05d1dad9ffd20a2e282d0cf2b6d7cdf48df29ce7accb5d8cc85e038811de4",
    "abs550aer/equal_width/B9/plain":
        "e18bac29ab0b43910079b918e886abad583d22a5a962933a3d4e8cc78cf8517c",
    "abs550aer/equal_width/B9/adaptive":
        "e18bac29ab0b43910079b918e886abad583d22a5a962933a3d4e8cc78cf8517c",
    "abs550aer/equal_width/B12/plain":
        "91a802876016102ab586eea77d9b164ad3bf28d37aaa8ac0cb476640a25fecfe",
    "abs550aer/equal_width/B12/adaptive":
        "91a802876016102ab586eea77d9b164ad3bf28d37aaa8ac0cb476640a25fecfe",
    "abs550aer/log_scale/B4/plain":
        "5bf1e7b35822fdc056778c56852df307c90afa938650fc0e0605b27d6f54fbdf",
    "abs550aer/log_scale/B4/adaptive":
        "5bf1e7b35822fdc056778c56852df307c90afa938650fc0e0605b27d6f54fbdf",
    "abs550aer/log_scale/B8/plain":
        "9587eb83699a8556fa6eb41892c8ad929f705592ea1c85ebd1f80833bcb9f148",
    "abs550aer/log_scale/B8/adaptive":
        "47787598bff1cc4f8a918307464ec7eb1344dbaffaffd2ee6e6dd1c4bc254608",
    "abs550aer/log_scale/B9/plain":
        "23464266eee33a04ea9f1f482baf1495471b3cf0aa5438af03acfb8edb168622",
    "abs550aer/log_scale/B9/adaptive":
        "6f46906df42e1156e775ee75d996a70202f9047f8961f0da6e338fc4b3706363",
    "abs550aer/log_scale/B12/plain":
        "00cac46ec456a62c8b9dc8c3e2beff6143c0de422afc3d4c430142a23508acf5",
    "abs550aer/log_scale/B12/adaptive":
        "00cac46ec456a62c8b9dc8c3e2beff6143c0de422afc3d4c430142a23508acf5",
    "abs550aer/clustering/B4/plain":
        "b97bb333e26b0d0946dddc70821ae5c7dbce74fce1014b5d634c0163101f2ea8",
    "abs550aer/clustering/B4/adaptive":
        "fd16ec7d96668595a119e3e4ecd956b6cc9eb6cd77bf4632e05d39596688ec93",
    "abs550aer/clustering/B8/plain":
        "3908268adfac69b4c5d762dacd1e2cacf3ca8c5a5d7ae8aedc104d8bea279c9a",
    "abs550aer/clustering/B8/adaptive":
        "df23a4bbd99c2a77f2a2b213f66db3d89ceccd52218e55f75915c99c92efb78e",
    "abs550aer/clustering/B9/plain":
        "e68c67921e269701eafd237d7882c8c3332a587f7133fffd187b46a8f41110f9",
    "abs550aer/clustering/B9/adaptive":
        "292787609523ad6416eb483bb587149996e5cb4eb5c56e6571e310366ad38071",
    "abs550aer/clustering/B12/plain":
        "564d65f382d451c399eafad7601a155864ac47b048379965c9d14381b28c5be7",
    "abs550aer/clustering/B12/adaptive":
        "4d6b323071f0c97cf9e8279035b485fdea9661802419d0c104aa10516274c4be",
}


@pytest.mark.parametrize(
    "variable,seed,strategy,nbits,adaptive", CASES,
    ids=[_key(v, s, b, a) for v, _, s, b, a in CASES])
def test_container_digest(variable, seed, strategy, nbits, adaptive):
    key = _key(variable, strategy, nbits, adaptive)
    assert _digest(variable, seed, strategy, nbits, adaptive) == GOLDEN[key]


def test_corpus_is_complete():
    assert sorted(GOLDEN) == sorted(_key(v, s, b, a) for v, _, s, b, a in CASES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        var, _, strat, b, ad = case
        print(f'    "{_key(var, strat, b, ad)}":\n        "{_digest(*case)}",')
    print("}")
