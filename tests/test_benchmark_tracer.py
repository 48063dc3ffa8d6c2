"""The benchmark's tracer (perfbench/tracer.py) patches osscl functions and
methods by name. Tier-1 collects only tests/, so this guard makes a renamed
or deleted traced name fail here rather than in every traced benchmark round.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def test_tracer_installs_and_restores_every_binding():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    tracer = Tracer().install()
    patched = list(tracer._patches)
    try:
        assert patched
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)
