"""Parameter validation, frequency tables, and the flat config-file parser."""

import numpy as np
import pytest

import kgcavity as kg


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
    assert tabs.Omega[0] == pytest.approx(np.hypot(np.pi, 5.0), rel=1e-15)
    assert tabs.omega_bar[0] == pytest.approx(np.hypot(np.pi / 0.7, 5.0), rel=1e-15)


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
    assert np.array_equal(kg.ladder(N, cfg.R, cfg.mu), tabs.Omega)
    for region, table in ((kg.Region.LEFT, tabs.omega), (kg.Region.RIGHT, tabs.omega_bar)):
        assert np.array_equal(region.omega(m, cfg), table)
        assert [region.omega(int(k), cfg) for k in m] == table.tolist()
    assert [kg.ladder(int(n), cfg.R, cfg.mu) for n in N] == tabs.Omega.tolist()
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
