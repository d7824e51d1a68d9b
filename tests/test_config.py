"""Parameter validation, frequency tables, and the flat config-file parser."""

import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import kgcavity as kg
from oracles import eval_global_mode, overlap_V


def test_validate_config_accepts_interior_partition():
    cfg = kg.validate_config(2.0, 0.7, 3.0)
    assert cfg.r_bar == pytest.approx(1.3)
    assert cfg.r_tilde == pytest.approx(0.35)
    assert cfg.mu_tilde == pytest.approx(6.0)


@pytest.mark.parametrize(
    "R, r, mu",
    [
        (1.0, 0.0, 0.0),      # r = 0 excluded: formulas divide by r
        (1.0, 1.0, 0.0),      # r = R excluded: divide by r_bar
        (1.0, 1.5, 0.0),
        (-1.0, 0.3, 0.0),
        (0.0, 0.0, 0.0),
        (1.0, 0.5, -0.1),
        (1.0, float("nan"), 0.0),
        (float("inf"), 0.5, 0.0),
    ],
)
def test_validate_config_rejects_bad_parameters(R, r, mu):
    with pytest.raises(kg.DomainError):
        kg.validate_config(R, r, mu)


@pytest.mark.parametrize("R, r, mu, name", [
    (1e300, 0.5, 0.0, "r/R"),            # the default r in a huge box
    (1.0, 1e-300, 0.0, "r/R"),
    (1.0, 9e-101, 0.0, "r/R"),
    (1.0, 0.5, 1e300, "mu R"),
    (1.0, 0.5, 1.01e150, "mu R"),
    (1e10, 5e9, 1e141, "mu R"),
])
def test_validate_config_refuses_reduced_scales_past_double_range(R, r, mu, name):
    with pytest.raises(kg.DomainError, match=name):
        kg.validate_config(R, r, mu)


def test_validate_config_accepts_the_bounds_of_the_reduced_scales():
    cfg = kg.validate_config(1.0, 1e-100, 1e150)
    assert (cfg.r_tilde, cfg.mu_tilde) == (1e-100, 1e150)
    # the box size alone is free: only the reduced scales are bounded
    assert kg.validate_config(1e-100, 5e-101, 0.0).r_tilde == 0.5


def test_truncation_rejects_bad_counts():
    with pytest.raises(kg.DomainError):
        kg.Truncation(n_max_global=0)
    with pytest.raises(kg.DomainError):
        kg.Truncation(grid_points=0)


def test_frequency_tables_shapes_and_monotonicity():
    cfg = kg.validate_config(1.0, 0.3, 5.0)
    trunc = kg.Truncation(n_max_global=50, m_max_local=20)
    tabs = kg.frequencies(cfg, trunc)
    assert tabs.Omega.shape == (50,)
    assert tabs.omega.shape == (20,)
    assert np.all(np.diff(tabs.Omega) > 0)
    assert np.all(np.diff(tabs.omega) > 0)
    assert np.all(tabs.Omega > cfg.mu)
    # Omega_N^2 = (pi N / R)^2 + mu^2 exactly
    assert tabs.Omega[0] == pytest.approx(np.hypot(np.pi, 5.0), rel=1e-15, abs=0)
    assert tabs.omega_bar[0] == pytest.approx(np.hypot(np.pi / 0.7, 5.0), rel=1e-15, abs=0)


def test_frequencies_are_deterministic():
    cfg = kg.validate_config(1.0, 1 / np.pi, 10.0)
    trunc = kg.Truncation(n_max_global=100, m_max_local=10)
    a = kg.frequencies(cfg, trunc)
    b = kg.frequencies(cfg, trunc)
    assert np.array_equal(a.Omega, b.Omega)
    assert np.array_equal(a.omega_bar, b.omega_bar)


def test_ladder_and_region_frequencies_equal_the_tables_bit_for_bit():
    cfg = kg.validate_config(2.5, 0.9, 1.7)
    trunc = kg.Truncation(n_max_global=300, m_max_local=40)
    tabs = kg.frequencies(cfg, trunc)
    N = np.arange(1, 301)
    m = np.arange(1, 41)
    # every dimensional frequency is the reduced ladder over R
    assert np.array_equal(kg.ladder(N, 1.0, cfg.mu_tilde) / cfg.R, tabs.Omega)
    for region, table in ((kg.Region.LEFT, tabs.omega), (kg.Region.RIGHT, tabs.omega_bar)):
        assert np.array_equal(region.omega(m, cfg), table)
        assert [region.omega(int(k), cfg) for k in m] == table.tolist()
    assert [kg.ladder(int(n), 1.0, cfg.mu_tilde) / cfg.R for n in N] == tabs.Omega.tolist()
    assert kg.Region.LEFT.interval(cfg) == (0.0, cfg.r, cfg.r)
    assert kg.Region.RIGHT.interval(cfg) == (cfg.r, cfg.R, cfg.r_bar)


# ── config file parsing ──────────────────────────────────────────────────────

def test_load_config_file_parses_both_syntaxes(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# a comment line\n"
        "R = 2.0\n"
        "r 0.5        # trailing comment, no equals sign\n"
        "mu = 0\n"
        "n_max_global = 500\n"
        "\n"
    )
    values = kg.load_config_file(str(p))
    assert values == {
        "R": 2.0,
        "r": 0.5,
        "mu": 0.0,
        "n_max_global": 500,
    }
    assert isinstance(values["n_max_global"], int)


def test_load_config_file_rejects_unknown_key(tmp_path):
    # the resonance window is a library constant, not a config key
    for line in ("partition = 0.5\n", "resonance_eps = 1e-8\n"):
        p = tmp_path / "bad.cfg"
        p.write_text(line)
        with pytest.raises(kg.DomainError, match="unknown config key"):
            kg.load_config_file(str(p))


def test_load_config_file_rejects_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("r = half\n")
    with pytest.raises(kg.DomainError, match="bad value"):
        kg.load_config_file(str(p))


# ── the index rule: every mode index and cutoff is an integer >= 1 ────────────

_L, _RG = kg.Region.LEFT, kg.Region.RIGHT


@pytest.fixture(scope="module")
def ctx():
    """What the entries below share, built once."""
    cfg = kg.validate_config(1.0, 0.4, 2.0)
    trunc = kg.Truncation(n_max_global=300, m_max_local=4, grid_points=33)
    return SimpleNamespace(
        cfg=cfg, trunc=trunc, grid=kg.uniform_grid(cfg, 33),
        blocks=[kg.build_block(region, cfg, None, trunc) for region in (_L, _RG)],
        dist=kg.overlap_distribution(1, cfg, trunc))


# (id, a good value, call): call(c, v) runs one public entry with v in the
# one place of a mode index or a cutoff
_ENTRIES = [
    ("Truncation-n_max_global", 300, lambda c, v: kg.Truncation(n_max_global=v)),
    ("Truncation-m_max_local", 4, lambda c, v: kg.Truncation(m_max_local=v)),
    ("Truncation-grid_points", 33, lambda c, v: kg.Truncation(grid_points=v)),
    ("gram-n_max", 300, lambda c, v: kg.gram(((_L, [1, 2]),), ((_RG, [1]),), c.cfg, v)),
    ("identity_residuals-n_max", 300, lambda c, v: kg.identity_residuals(c.cfg, v, 3)),
    ("identity_residuals-upto", 3, lambda c, v: kg.identity_residuals(c.cfg, 300, v)),
    ("beta_sq_total-n_max", 300, lambda c, v: kg.beta_sq_total(_L, [1, 2], c.cfg, v)),
    ("eval_global_mode-N", 3, lambda c, v: eval_global_mode(v, c.grid, 0.3, c.cfg)),
    ("eval_local_initial-m", 2, lambda c, v: kg.eval_local_initial(_RG, v, c.grid, c.cfg)),
    ("evolve_local_mode-m", 2,
     lambda c, v: kg.evolve_local_mode(_L, v, c.grid, 0.3, c.cfg, c.trunc)),
    ("uniform_grid-n_points", 33, lambda c, v: kg.uniform_grid(c.cfg, v)),
    ("make_probe-n", 2, lambda c, v: kg.make_probe(0.7, 0.1, v, c.cfg)),
    ("overlap_V-m", 2, lambda c, v: overlap_V(v, 3, _L, c.cfg)),
    ("overlap_V-N", 3, lambda c, v: overlap_V(2, v, _L, c.cfg)),
    ("steering_shift-l", 2, lambda c, v: kg.steering_shift(c.dist, [1, v], c.cfg)),
    ("divergence_scan-N", 2, lambda c, v: kg.divergence_scan([1, v], c.cfg, [10, 100])),
    ("divergence_scan-M", 100, lambda c, v: kg.divergence_scan([1, 2], c.cfg, [10, v])),
    ("mode_sum_convergence-n", 100,
     lambda c, v: kg.mode_sum_convergence(_L, 1, c.cfg, [50, v])),
    ("wick_moments-m", 2, lambda c, v: kg.wick_moments([1, v], [1], *c.blocks)),
    ("wick_moments-n", 2, lambda c, v: kg.wick_moments([1], [v, 1], *c.blocks)),
    ("limit_scan-probe_m", 2,
     lambda c, v: kg.limit_scan("mass", [1.0, 3.0], [(1, 2), (v, 1)], c.cfg, c.trunc)),
    ("limit_scan-probe_N", 3,
     lambda c, v: kg.limit_scan("partition-size", [0.3, 0.6], [(v, 1), (1, v)], c.cfg, c.trunc)),
    ("limit_scan-M_fixed", 5,
     lambda c, v: kg.limit_scan("mass", [1.0, 3.0], [(1, 2)], c.cfg, c.trunc, M_fixed=v)),
]

# every computation an entry could start before its index check, by the
# name it is looked up under
_WORK = ["kgcavity.config.ladder", "kgcavity.bogoliubov.ladder", "kgcavity.vacuum.ladder",
         "kgcavity.bogoliubov._geometry", "kgcavity.vacuum._geometry", "kgcavity.bogoliubov._grid",
         "kgcavity.vacuum._grid", "kgcavity.vacuum._beta_sq_sums", "kgcavity.vacuum._row_grams",
         "kgcavity.modes.build_block", "kgcavity.modes._row_series",
         "kgcavity.quadrature._simpson", "kgcavity.causality._probe_config"]


@pytest.mark.parametrize("good, call", [entry[1:] for entry in _ENTRIES],
                         ids=[entry[0] for entry in _ENTRIES])
def test_every_index_and_cutoff_obeys_the_one_rule(ctx, monkeypatch, good, call):
    # config's check is the only one: 0, -1, 1.5, nan and inf are a
    # DomainError before any work, and an integer-valued float or a numpy
    # integer stands for the int, down to the last bit of the result
    want = pickle.dumps(call(ctx, good))
    for same in (float(good), np.int64(good)):
        assert pickle.dumps(call(ctx, same)) == want, same

    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the index check")

    for target in _WORK:
        monkeypatch.setattr(target, refuse)
    for bad in (0, -1, 1.5, math.nan, math.inf):
        with pytest.raises(kg.DomainError):
            call(ctx, bad)


def test_local_index_is_the_one_local_cutoff_check():
    # the library's evolutions and the CLI's index flags share one check:
    # a local-mode index lies in the rows 1..m_max_local and obeys the
    # index rule, and comes back as a Python int
    from kgcavity.config import _local_index

    trunc = kg.Truncation(m_max_local=4)
    for good in (1, 4, 3.0, np.int64(2)):
        got = _local_index("m", good, trunc)
        assert got == good and type(got) is int
    for bad in (0, -1, 5, math.nan, math.inf):
        with pytest.raises(kg.DomainError, match=r"local index m=.* outside block of rows 1\.\.4"):
            _local_index("m", bad, trunc)
    with pytest.raises(kg.DomainError, match="whole"):
        _local_index("m", 1.5, trunc)
