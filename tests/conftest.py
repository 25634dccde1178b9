import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bdspace.construction import build_embedding
from bdspace.decomp import SeedSpace, build_norming_set_D
from bdspace.exact import FinVec
from bdspace.families import schreier
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set


def replaced(obj, **changes):
    """A shallow copy of ``obj`` with the given attributes changed, to
    inject a fault into one part of a build."""
    new = copy.copy(obj)
    vars(new).update(changes)
    return new


def make_acceptance_seed(nblocks: int = 4) -> SeedSpace:
    """The canonical acceptance seed: a truncated Tsirelson-normed space,
    one-dimensional blocks, built through the general (normalized) variant."""
    c = Fraction(1, 16)
    fam = schreier(1)
    dns = build_dual_norming_set(TsirelsonSpec(fam, c), nblocks, nblocks)
    uni = "seed:acc"
    norming = [FinVec(uni, dict(v.items())) for v in dns.members()]
    return SeedSpace("acc", [1] * nblocks, norming, c, c / 2)


@pytest.fixture(scope="session")
def acc_seed():
    seed = make_acceptance_seed()
    assert seed.validate() == []
    return seed


@pytest.fixture(scope="session")
def acc_D(acc_seed):
    return build_norming_set_D(acc_seed)


@pytest.fixture(scope="session")
def acc_build(acc_seed, acc_D):
    return build_embedding(acc_seed, acc_D, stage_bound=8)


def make_halfnorm_seed() -> SeedSpace:
    """Four one-dimensional blocks normed by the (S_1, 1/2) tree
    functionals: the explicit seed of the ``halfnorm-pipeline`` config."""
    dns = build_dual_norming_set(TsirelsonSpec(schreier(1), Fraction(1, 2)),
                                 4, 4)
    uni = "seed:halfnorm"
    norming = [FinVec(uni, dict(v.items())) for v in dns.members()]
    return SeedSpace("halfnorm", [1] * 4, norming, Fraction(1, 16),
                     Fraction(1, 32))


@pytest.fixture(scope="session")
def halfnorm_D():
    seed = make_halfnorm_seed()
    assert seed.validate() == []
    return build_norming_set_D(seed)


@pytest.fixture(scope="session")
def halfnorm_build8(halfnorm_D):
    return build_embedding(halfnorm_D.seed, halfnorm_D, stage_bound=8)


@pytest.fixture(scope="session")
def halfnorm_build10(halfnorm_D):
    return build_embedding(halfnorm_D.seed, halfnorm_D, stage_bound=10)


@pytest.fixture(scope="session")
def build_6x16():
    """The 6-block / stage-16 build of the CLI's Tsirelson config."""
    from bdspace.cli import realize_build
    return realize_build({
        "schema": "bdspace-config-v1", "eps": "1/32", "stage_bound": 16,
        "seed": {"kind": "tsirelson", "name": "acc", "family": "schreier:1",
                 "c": "1/16", "blocks": 6, "unconditional": False}})[2]


@pytest.fixture(scope="session")
def acc_aug(acc_build):
    from bdspace.augmentation import AugmentedBuild
    return AugmentedBuild(acc_build, TsirelsonSpec(schreier(1), Fraction(1, 16)),
                          Fraction(1, 16))


def lift_acceptance(build):
    """The acceptance augmentation toward (S_1, 1/2): carriers at ranks 2, 6
    and 11, and the chain element that certifying their blocks lifts."""
    from bdspace.augmentation import AugmentedBuild, certify_lower_estimate
    aug = AugmentedBuild(build, TsirelsonSpec(schreier(1), Fraction(1, 2)),
                         Fraction(1, 16))
    blocks = [aug.carrier_block(aug.make_carrier(r)) for r in (2, 6, 11)]
    assert certify_lower_estimate(aug, blocks).status == "PASS"
    return aug


@pytest.fixture(scope="session")
def acc_lifted(acc_build):
    return lift_acceptance(acc_build)
