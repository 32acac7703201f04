"""Per-layer counters and self times, recorded from outside the program.

`Tracer.install` rebinds each traced function in every selparse module
that holds a reference to it (and on its class, for methods), so calls made
by the program itself go through the wrapper.  Nothing under src/ changes;
`uninstall` puts the originals back.

A wrapper counts calls and records the call's duration and its self time:
the duration minus that of the traced calls made inside it.  An optional
observer sees the arguments and result of each successful call and adds
layer-specific counts; its own cost is kept out of every self time.
"""

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.active = Counter()     # name -> calls currently on the stack
        self._children = []         # traced time spent inside each open call
        self._undo = []

    def wrap(self, name, fn, observe=None):
        stat = self.stats[name]
        children = self._children
        active = self.active

        @wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                active[name] -= 1
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
                if children:
                    children[-1] += elapsed
            if observe is not None:
                start = perf_counter()
                observe(stat, args, result)
                if children:
                    children[-1] += perf_counter() - start
            return result

        return traced

    def install(self, targets):
        """Wrap each (name, owner, attribute, observer) target."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "selparse" or n.startswith("selparse.")]
        for name, owner, attr, observe in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, observe)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                keys = [k for k, v in vars(holder).items() if v is original]
                for key in keys:
                    self._undo.append((holder, key, original))
                    setattr(holder, key, traced)

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)
