"""numpy, imported by the first array operation, and the helpers with which one
formula takes a Python float or a numpy array: ``np`` stands in for numpy until
an attribute is read from it, then imports it and binds it as ``np`` in every
module of the package. Before that no object can be an array, so
``isinstance(x, np.ndarray)`` imports nothing; floats take ``_select``'s branch
and ``_MATH``."""

import math
import sys
from contextlib import nullcontext
from itertools import repeat
from types import SimpleNamespace

_NoArray = type("_NoArray", (), {})  # np.ndarray while numpy is not imported


class _LazyNumpy:
    @property
    def ndarray(self):
        return _NoArray if "numpy" not in sys.modules else self.__getattr__("ndarray")

    def __getattr__(self, name):
        import numpy

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith(__package__ + ".") and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

# numpy's functions on floats; max(lo, x) keeps lo for a NaN x, as fmax does
_MATH = SimpleNamespace(sqrt=math.sqrt, cbrt=math.cbrt, arccos=math.acos, cos=math.cos,
                        copysign=math.copysign, nextafter=math.nextafter, fmax=max, fmin=min,
                        isfinite=math.isfinite, logical_not=lambda x: not x,
                        errstate=lambda **kwargs: nullcontext())


def _xp(x):
    """numpy for an array, ``_MATH`` for a float."""
    return np if isinstance(x, np.ndarray) else _MATH


def _select(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: ``np.where`` on arrays, a branch on floats."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _any(mask):
    """Whether ``mask``, a bool or an array of them, holds anywhere."""
    return np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask


def _first(values, where):
    """The entry of ``values``, broadcast against ``where``, where ``where`` first holds."""
    if not isinstance(where, np.ndarray):
        return values
    return np.broadcast_to(values, where.shape)[where][0].item()


def _libm(f, x, *args):
    """``f(x, *args)``, elementwise and keeping the shape if x is an array. ``f`` is
    a ``math``-module or builtin function of floats, so every value comes from
    libm as a scalar's does; numpy's ``exp`` and ``power`` can miss it by a bit."""
    if not isinstance(x, np.ndarray):
        return f(x, *args)
    values = map(f, x.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, float, x.size).reshape(x.shape)
