"""From-scratch ML stack (numpy only): histogram trees, random forest with
MDI importances, monotone-constrained gradient boosting (XGBoost stand-in),
MLP with Adam, matrix-factorization collaborative filtering, input
standardization, the R^2 and weighted-MAPE metrics and CV."""

from repro.ml.tree import DecisionTreeRegressor, FeatureBinner, TreeNode
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.mlp import MLPRegressor
from repro.ml.cf import MatrixFactorization
from repro.ml.preprocessing import StandardScaler
from repro.ml.metrics import r2_score, weighted_mape
from repro.ml.cv import leave_one_group_out, grid_iter, GridSearch

__all__ = [
    "DecisionTreeRegressor",
    "FeatureBinner",
    "TreeNode",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
    "MLPRegressor",
    "MatrixFactorization",
    "StandardScaler",
    "r2_score",
    "weighted_mape",
    "leave_one_group_out",
    "grid_iter",
    "GridSearch",
]
