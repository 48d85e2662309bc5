"""Regression trees: structure, split finding, and layer-wise growth.

* :class:`SplitDecision` / split scans — Algorithm 1 lines 10-17, the
  gain-maximizing scan over gradient histograms, in whole-histogram and
  feature-range (server-side) forms.
* :class:`RegressionTree` — heap-layout tree with vectorized prediction.
* :class:`LayerwiseGrower` — the single-process reference engine growing
  one tree layer by layer (Section 4.4's layer-wise scheme) through
  ``grower.grow_layerwise``, the one layer loop the distributed engine
  runs too.
"""

from .split import SplitDecision, find_best_split, best_split_in_range, leaf_weight
from .tree import RegressionTree
from .grower import GrownTree, LayerwiseGrower
from .bestfirst import BestFirstGrower
from .exact import exact_best_split, exact_split_mask

__all__ = [
    "SplitDecision",
    "find_best_split",
    "best_split_in_range",
    "leaf_weight",
    "RegressionTree",
    "GrownTree",
    "LayerwiseGrower",
    "BestFirstGrower",
    "exact_best_split",
    "exact_split_mask",
]
