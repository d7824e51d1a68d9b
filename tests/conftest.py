"""Shared fixtures.

The workhorse configuration for most tests is the symmetric split
R = 1, r = 1/2, mu = 0 at n_max = 10^4: closed-form values exist there
(alpha_11 = 2/pi, the m=1, N=2 resonance, Kronecker zeros at even N), and
one pair of Bogoliubov blocks covers the vacuum/correlation/quasilocal
tests. Blocks are session-scoped; `build_block` also memoizes in-process,
so repeated requests elsewhere in the suite are free.
"""

import numpy as np
import pytest

import kgcavity as kg

SEED = 20260815


@pytest.fixture(scope="session")
def cfg_half():
    return kg.validate_config(1.0, 0.5, 0.0)


@pytest.fixture(scope="session")
def trunc_10k():
    return kg.Truncation(n_max_global=10_000, m_max_local=60, grid_points=2048)


@pytest.fixture(scope="session")
def tables_half(cfg_half, trunc_10k):
    return kg.frequencies(cfg_half, trunc_10k)


@pytest.fixture(scope="session")
def blocks_half(cfg_half, trunc_10k):
    left = kg.build_block(kg.Region.LEFT, cfg_half, None, trunc_10k)
    right = kg.build_block(kg.Region.RIGHT, cfg_half, None, trunc_10k)
    return left, right


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)
