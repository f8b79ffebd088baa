import pytest

from scatterlab.clusters import (
    CHART,
    ClusterId,
    TWO_CLUSTERS,
    cluster_coordinates,
    cluster_count,
    coordinate,
    require_two_cluster,
)
from scatterlab.errors import ClusterError
from scatterlab.model import default_model


def test_cluster_counts():
    assert cluster_count(ClusterId.TOGETHER) == 1
    assert cluster_count(ClusterId.PHOTON_FREE) == 2
    assert cluster_count(ClusterId.ELECTRON_FREE) == 2
    assert cluster_count(ClusterId.PAIR_FREE) == 2
    assert cluster_count(ClusterId.ALL_FREE) == 3


def test_chart_pair_cluster():
    ext, intern = cluster_coordinates(ClusterId.PAIR_FREE, (1.0, 0.5))
    assert ext == (1.5,)
    assert intern == (0.5,)


def test_chart_photon_free():
    ext, intern = cluster_coordinates(ClusterId.PHOTON_FREE, (1.0, 0.5))
    assert ext == (0.5,)
    assert intern == (1.0,)


def test_chart_electron_free():
    ext, intern = cluster_coordinates(ClusterId.ELECTRON_FREE, (1.0, 0.5))
    assert ext == (1.0,)
    assert intern == (0.5,)


def test_chart_extremes():
    ext, intern = cluster_coordinates(ClusterId.ALL_FREE, (2.0, -3.0))
    assert ext == (2.0, -3.0) and intern == ()
    ext, intern = cluster_coordinates(ClusterId.TOGETHER, (2.0, -3.0))
    assert ext == () and intern == (2.0, -3.0)


def test_reduced_requires_two_cluster():
    model = default_model()
    with pytest.raises(ClusterError):
        model.reduced(ClusterId.TOGETHER, 0.0)
    with pytest.raises(ClusterError):
        model.subsystem(ClusterId.ALL_FREE)
    for a in TWO_CLUSTERS:
        model.reduced(a, 0.3)


def test_truncated_potentials_act_on_the_internal_coordinates_of_the_chart():
    model = default_model()
    for a in TWO_CLUSTERS:
        assert tuple(tag for _, tag in model.truncated(a).potentials) == CHART[a][0]


def test_unknown_coordinate_tag_raises():
    with pytest.raises(ClusterError):
        coordinate("x*y", 1.0, 2.0)


@pytest.mark.parametrize("a", ["(xy)(0)", None, 2, pytest.param(["x"], id="list")])
def test_anything_but_a_cluster_id_raises_cluster_error(a):
    model = default_model()
    calls = [lambda: cluster_count(a), lambda: require_two_cluster(a),
             lambda: cluster_coordinates(a, (1.0, 0.5)),
             lambda: model.subsystem(a), lambda: model.reduced(a, 0.3),
             lambda: model.truncated(a), lambda: model.intercluster(a)]
    for call in calls:
        with pytest.raises(ClusterError):
            call()
