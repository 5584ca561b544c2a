"""Splitting solver with closed-form optimal step sizes and a benchmark zoo.

The pieces, bottom up:

- :mod:`admmtune.quartic`: the step-size optimality quartic and its
  closed-form positive root.
- :mod:`admmtune.prox`: proximal operators in the classical and the
  right-scaled parameterization, translations between them, and a catalog
  of standard functions.
- :mod:`admmtune.engine`: the two-block splitting loop and its averaged
  fixed-point form.
- :mod:`admmtune.tuner`: step-size plans (fixed, successively estimated,
  closed-form optimal), one-sweep start/step pairs, and the
  single-parameter contradiction report.
- :mod:`admmtune.problems`: reproducible benchmark instances in desk and
  full size profiles.
- :mod:`admmtune.cli`: the ``admmtune`` command.
"""

from .quartic import *
from .prox import *
from .engine import *
from .tuner import *
from .problems import *

__version__ = "0.1.0"

__all__ = [*quartic.__all__, *prox.__all__, *engine.__all__, *tuner.__all__, *problems.__all__,
           "__version__"]
