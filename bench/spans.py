"""In-memory spans around the calls that ``lbandsm.pipeline`` makes into
each layer.

The benchmark wraps the public functions that the pipeline module
imports, so no program code changes. Each wrapped call records one span:
name, tag (for example the preset of a retrieval), start, end, parent
span and run id. Spans stay in memory until ``write`` is called at the
end of the run.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, TAG, START, END, PARENT, RUN = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    @contextmanager
    def span(self, name, tag=None):
        """Record a span around a block."""
        span = [name, tag, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, tag=None):
        """Return `fn` wrapped so that every call records a span;
        `tag(args)` labels the span from the call's positional args."""
        def traced(*args, **kwargs):
            with self.span(name, tag(args) if tag else None):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, module, targets):
        """Replace `module.<attr>` by its traced form for every
        attr -> (span name, tag) in `targets` that the module has."""
        saved = {attr: getattr(module, attr) for attr in targets
                 if hasattr(module, attr)}
        try:
            for attr, fn in saved.items():
                name, tag = targets[attr]
                setattr(module, attr, self.wrap(name, fn, tag))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def summary(self, run_id):
        """Per span name: total self time (duration minus the part covered
        by child spans) and call count, plus every duration by
        (name, tag), for one run."""
        chosen = [i for i, s in enumerate(self.spans) if s[RUN] == run_id]
        child_time = defaultdict(float)
        for i in chosen:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self_s, calls, durations = defaultdict(float), defaultdict(int), defaultdict(list)
        for i in chosen:
            s = self.spans[i]
            duration = s[END] - s[START]
            self_s[s[NAME]] += duration - child_time[i]
            calls[s[NAME]] += 1
            durations[(s[NAME], s[TAG])].append(duration)
        return self_s, calls, durations

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "tag": s[TAG],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "run": s[RUN]}) + "\n")
