"""Configuration (Table 1) validation and derived quantities."""

import pytest

from repro.config import (
    Configuration,
    GraphType,
    DEFAULT,
    GNUTELLA_2001,
    GNUTELLA_REDESIGNED,
    STRONG_BEST_CASE,
)


def test_table1_defaults():
    assert DEFAULT.graph_type is GraphType.POWER_LAW
    assert DEFAULT.graph_size == 10_000
    assert DEFAULT.cluster_size == 10
    assert DEFAULT.redundancy is False
    assert DEFAULT.avg_outdegree == pytest.approx(3.1)
    assert DEFAULT.ttl == 7
    assert DEFAULT.query_rate == pytest.approx(9.26e-3)


def test_num_clusters():
    assert DEFAULT.num_clusters == 1000
    assert Configuration(graph_size=100, cluster_size=100).num_clusters == 1
    assert Configuration(graph_size=10, cluster_size=1).num_clusters == 10


def test_mean_clients_no_redundancy():
    # c = ClusterSize - 1 without redundancy (Section 4.1, step 1).
    assert Configuration(cluster_size=10).mean_clients_per_cluster == 9.0


def test_mean_clients_with_redundancy():
    # c = ClusterSize - k with k-redundancy.
    config = Configuration(cluster_size=10, redundancy=True)
    assert config.mean_clients_per_cluster == 8.0
    assert config.partners_per_cluster == 2


def test_pure_network_degeneracy():
    pure = Configuration(cluster_size=1, graph_size=100)
    assert pure.is_pure
    assert pure.mean_clients_per_cluster == 0.0
    assert not DEFAULT.is_pure


def test_with_changes_creates_variant():
    variant = DEFAULT.with_changes(ttl=3)
    assert variant.ttl == 3
    assert DEFAULT.ttl == 7  # original untouched
    assert variant.graph_size == DEFAULT.graph_size


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(graph_size=0),
        dict(cluster_size=0),
        dict(cluster_size=11, graph_size=10),
        dict(ttl=0),
        dict(query_rate=-1.0),
        dict(update_rate=-0.5),
        dict(avg_outdegree=0.5),
        dict(redundancy=True, cluster_size=1, graph_size=10),
        dict(redundancy=True, redundancy_factor=1),
        dict(cluster_size_sigma=1.5),
    ],
)
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ValueError):
        Configuration(**kwargs)


@pytest.mark.parametrize("field", ["query_rate", "update_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-9])
def test_action_rate_must_be_finite_and_non_negative(field, value):
    with pytest.raises(ValueError) as excinfo:
        Configuration(**{field: value})
    message = str(excinfo.value)
    assert message.startswith(f"{field} must be finite and >= 0")
    assert message.endswith(f"got {value}")


@pytest.mark.parametrize("field", ["query_rate", "update_rate"])
def test_zero_action_rate_allowed(field):
    assert getattr(Configuration(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
def test_cluster_size_sigma_message_names_value(value):
    with pytest.raises(ValueError, match=r"^cluster_size_sigma must be in \[0, 1\), got "):
        Configuration(cluster_size_sigma=value)


def test_gnutella_2001_preset_matches_section_5_2():
    assert GNUTELLA_2001.graph_size == 20_000
    assert GNUTELLA_2001.cluster_size == 1
    assert GNUTELLA_2001.avg_outdegree == pytest.approx(3.1)
    assert GNUTELLA_2001.ttl == 7


def test_redesigned_preset_matches_section_5_2():
    assert GNUTELLA_REDESIGNED.cluster_size == 10
    assert GNUTELLA_REDESIGNED.ttl == 2
    assert GNUTELLA_REDESIGNED.avg_outdegree == pytest.approx(18.0)


def test_strong_best_case_ttl_is_one():
    assert STRONG_BEST_CASE.graph_type is GraphType.STRONG
    assert STRONG_BEST_CASE.ttl == 1


def test_describe_mentions_key_parameters():
    text = DEFAULT.describe()
    assert "10000 peers" in text
    assert "cluster size 10" in text
    red = Configuration(cluster_size=10, redundancy=True).describe()
    assert "redundant" in red
