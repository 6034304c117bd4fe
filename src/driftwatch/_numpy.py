"""numpy, imported on its first use: its import is most of a cold start of
univariate ``detect``, which needs only the standard library. A module that
uses numpy binds ``np = LazyNumpy(__name__)`` and makes no numpy call at
import time, so ``errstate`` stands in for the ``np.errstate`` decorator."""

import functools
import sys


class LazyNumpy:
    """numpy's stand-in in one module: the first attribute read imports numpy
    and rebinds that module's ``np`` to it, so later reads cost nothing."""

    def __init__(self, module_name: str):
        self.module_name = module_name

    def __getattr__(self, name):
        import numpy
        sys.modules[self.module_name].np = numpy
        return getattr(numpy, name)


def errstate(**settings):
    """``@np.errstate(**settings)``, applied on the first call; one more Python frame per call."""
    def decorate(fn):
        scoped = None

        @functools.wraps(fn)
        def call(*args, **kwargs):
            nonlocal scoped
            if scoped is None:
                import numpy
                scoped = numpy.errstate(**settings)(fn)
            return scoped(*args, **kwargs)
        return call
    return decorate
