"""Fitted-model pins: the learned models' outputs, bit for bit.

The recommender's performance model, the gradient-boosting regressor
under it and the random-forest baseline are all grown by one histogram
tree engine. These tests pin each fitted model's output with exact float
literals, so a refactor of split search or tree growth cannot move a
prediction, a base value or an importance by even one ulp.
"""

import numpy as np
import pytest

from repro.ml import FeatureBinner, GradientBoostingRegressor, RandomForestRegressor
from repro.models import LLM_CATALOG, get_llm
from repro.recommendation import LatencyConstraints, PerfModelHyperparams
from repro.recommendation.features import FeatureSpace
from repro.recommendation.perfmodel import PerformanceModel


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(300, 4))
    y = (
        2 * X[:, 0]
        + np.sin(3 * X[:, 1])
        + X[:, 2] ** 2
        + 0.1 * rng.standard_normal(300)
    )
    w = rng.uniform(0.1, 2.0, size=300)
    return X, y, w


def test_weighted_monotone_subsampled_gbm(toy):
    X, y, w = toy
    g = GradientBoostingRegressor(
        n_estimators=30,
        max_depth=3,
        subsample=0.8,
        monotone_constraints={0: 1},
        random_state=3,
    ).fit(X, y, sample_weight=w)
    assert g.predict(X[:5]).tolist() == [
        3.8327237665259433,
        2.5422934992818513,
        1.267002087932657,
        3.8902228131821106,
        3.6108911049542765,
    ]
    assert g.base_prediction_ == 1.499409858034372
    assert g.feature_importances_.tolist() == [
        0.49974245009713664,
        0.14204155353649778,
        0.3505025918096155,
        0.007713404556750072,
    ]


def test_unsubsampled_decreasing_gbm(toy):
    """The recommender's path: every stage fits every row. Deeper trees,
    a leaf-size floor and a decreasing constraint on a feature the
    target is not monotone in, so the child-value bounds bind."""
    X, y, w = toy
    # Continuous inputs: no training value sits on a bin threshold, so
    # the pin holds whichever child a value equal to one would train in.
    thresholds = FeatureBinner(max_bins=64).fit(X).thresholds_
    assert not any(np.isin(X[:, j], thr).any() for j, thr in enumerate(thresholds))
    g = GradientBoostingRegressor(
        n_estimators=30,
        max_depth=5,
        min_samples_leaf=3,
        subsample=1.0,
        monotone_constraints={1: -1},
    ).fit(X, y, sample_weight=w)
    assert g.predict(X[:5]).tolist() == [
        4.1673890068084996,
        2.142044654477776,
        1.0987654636210287,
        4.274307260569661,
        3.750387877392981,
    ]
    assert g.base_prediction_ == 1.499409858034372
    assert g.feature_importances_.tolist() == [
        0.65110056562478,
        0.07095876670913842,
        0.24301406257503108,
        0.03492660509105047,
    ]


def test_random_forest(toy):
    X, y, _ = toy
    f = RandomForestRegressor(n_estimators=10, max_depth=6, random_state=2).fit(X, y)
    assert f.predict(X[:5]).tolist() == [
        3.9363269857278205,
        2.6679834056183633,
        0.9093591423460301,
        3.863849494631247,
        3.5597469711976286,
    ]
    assert f.feature_importances_.tolist() == [
        0.787213978726745,
        0.021351430577632734,
        0.18390461015908557,
        0.007529980536536682,
    ]


def test_performance_model_on_small_dataset(small_dataset):
    train = small_dataset.dataset
    lookup = dict(LLM_CATALOG)
    model = PerformanceModel(
        feature_space=FeatureSpace.fit([lookup[name] for name in train.llms()]),
        constraints=LatencyConstraints(nttft_s=0.1, itl_s=0.05),
        hyperparams=PerfModelHyperparams(n_estimators=40),
    ).fit(train, lookup)
    nttft, itl = model.predict(get_llm("Llama-2-13b"), "1xA100-40GB", [1, 4, 16, 64])
    assert nttft.tolist() == [
        0.0004729881663195363,
        0.0008319922200049447,
        0.003802245577260859,
        0.029568103381061975,
    ]
    assert itl.tolist() == [
        0.031685268698802456,
        0.032807009267647104,
        0.038264590976880994,
        0.0408495816701648,
    ]
