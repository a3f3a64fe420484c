"""Informationally complete measurements and Bayesian quantum updating.

The package treats POVMs as the basic notion of measurement: a fixed
minimal informationally complete POVM (the standard quantum measurement)
turns states into probability vectors, measurement collapse factors into
a Bayes-like refinement plus a unitary readjustment, and tomography
becomes prior merging over density operators.  See the README for a tour.

``import qbayes`` loads no submodule: each one is imported when it is first
used, by ``import qbayes.X``, ``from qbayes import X`` or the attribute
``qbayes.X`` (PEP 562), so a program pays only for the modules it calls.
"""

import sys

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "definetti",
    "effects",
    "entropy",
    "errors",
    "linalg",
    "locality",
    "states",
    "update",
]


def __getattr__(name):
    if name in __all__:
        __import__(f"{__name__}.{name}")  # the builtin import, which -X importtime reports
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
